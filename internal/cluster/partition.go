// Package cluster shards the item space of the active database across N
// independent engines behind a router that speaks the ordinary wire
// protocol. Each shard owns a disjoint partition of the item names and
// event symbols (hash partitioning); rules pin to the shard owning their
// statically extracted read-set footprint (internal/adb.Footprint — the
// same analysis the scheduling index uses, repurposed as a placement
// oracle); transactions route to the single shard owning everything they
// touch. Cross-shard event flow goes through relay triggers: when a rule
// homed on one shard observes an event symbol owned by another, a hidden
// trigger registers on the owner, whose firings the router observes and
// forwards to the home shard as ordinary emits. Relays are shared: they
// key on (home shard, event use), not on the observing rule, so however
// many rules on one home observe the same remote event, each occurrence
// is forwarded to that home exactly once.
//
// Every shard keeps its own serializing commit pipeline (and, when
// durable, its own WAL and snapshots), so the per-shard
// state evolution — and therefore the per-shard firing stream — is
// byte-identical to a single engine run over that shard's operation
// subsequence. The router merges the per-shard streams into one global
// sequence in fan-in arrival order, preserving each shard's internal
// order exactly.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"ptlactive/internal/adb"
	"ptlactive/internal/server/wire"
)

// Partitioner is the item→shard map: FNV-1a over the key name, mod the
// shard count. It is a pure value — two routers over the same shard count
// agree on every placement, so repartitioning the same registration set
// is deterministic.
type Partitioner struct {
	n int
}

// NewPartitioner returns a partitioner over n shards (n >= 1).
func NewPartitioner(n int) Partitioner {
	if n < 1 {
		n = 1
	}
	return Partitioner{n: n}
}

// Shards returns the shard count.
func (p Partitioner) Shards() int { return p.n }

// Owner returns the shard owning a key. Item names and event symbols
// share one key space: the owner of item "x" and of event symbol "x" is
// the same shard, so a rule over both never splits on that name.
func (p Partitioner) Owner(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(p.n))
}

// relayPrefix marks router-internal relay triggers. The segment layout is
// relayPrefix + arity + "/" + homeShard + "/" + event: arity and home are
// integers, so the trailing event symbol may contain anything.
const relayPrefix = "__relay/"

// relayName builds the hidden relay trigger's name for one remote event
// use feeding rules homed on the given shard. The name deliberately does
// NOT mention any rule: every rule on that home observing that event
// shares the one relay, so one occurrence forwards at most once per home.
func relayName(home int, use adb.EventUse) string {
	return fmt.Sprintf("%s%d/%d/%s", relayPrefix, use.Arity, home, use.Name)
}

// parseRelayName inverts relayName; ok is false for non-relay rules.
func parseRelayName(name string) (home int, use adb.EventUse, ok bool) {
	rest, found := strings.CutPrefix(name, relayPrefix)
	if !found {
		return 0, adb.EventUse{}, false
	}
	arityStr, rest, found := strings.Cut(rest, "/")
	if !found {
		return 0, adb.EventUse{}, false
	}
	homeStr, ev, found := strings.Cut(rest, "/")
	if !found || ev == "" {
		return 0, adb.EventUse{}, false
	}
	arity, err := strconv.Atoi(arityStr)
	if err != nil {
		return 0, adb.EventUse{}, false
	}
	home, err = strconv.Atoi(homeStr)
	if err != nil {
		return 0, adb.EventUse{}, false
	}
	return home, adb.EventUse{Name: ev, Arity: arity}, true
}

// relayCondition builds the relay trigger's condition: the bare event
// atom with fresh variables, so the trigger fires once per occurrence
// with the occurrence's arguments in its binding (A0..An-1).
func relayCondition(use adb.EventUse) string {
	args := make([]string, use.Arity)
	for i := range args {
		args[i] = fmt.Sprintf("A%d", i)
	}
	if len(args) == 0 {
		return "@" + use.Name
	}
	return "@" + use.Name + "(" + strings.Join(args, ", ") + ")"
}

// RemoteEvent is one event use a placed rule observes on a shard other
// than its home: the owner shard and the atom shape to relay from it.
type RemoteEvent struct {
	Shard int
	Use   adb.EventUse
}

// Placement is the routing decision for one rule: the shard it registers
// on and the remote event uses that need relay triggers.
type Placement struct {
	Home         int
	RemoteEvents []RemoteEvent
}

// Place computes a rule's placement from its footprint. It is a pure
// function of (partitioner, footprint, homes): the same inputs always
// yield the same placement, and a successful placement puts the rule on
// exactly one shard.
//
// The rule's database items must all hash to one shard — the condition
// evaluates against that shard's database — and any executed() targets
// must already be homed there (homes maps known rule names to their
// shards). Event symbols owned elsewhere are fine for triggers (they
// relay), but not for constraints: a constraint must be fully evaluable
// at commit time on its home shard, and a relayed occurrence arrives
// after the transaction it should have vetoed.
func Place(p Partitioner, fp adb.Footprint, constraint bool, homes map[string]int) (Placement, error) {
	if !fp.Analyzable {
		return Placement{}, fmt.Errorf("%w: condition reads items the placement oracle cannot enumerate (non-constant item() or undeclared query)", wire.ErrCrossShard)
	}
	home := -1
	anchor := ""
	for _, item := range fp.Items {
		s := p.Owner(item)
		if home == -1 {
			home, anchor = s, item
		} else if s != home {
			return Placement{}, fmt.Errorf("%w: items %q and %q hash to different shards", wire.ErrCrossShard, anchor, item)
		}
	}
	for _, target := range fp.ExecRules {
		ts, known := homes[target]
		if !known {
			return Placement{}, fmt.Errorf("%w: executed() target %q is not a registered rule", wire.ErrCrossShard, target)
		}
		if home == -1 {
			home, anchor = ts, "executed("+target+")"
		} else if ts != home {
			return Placement{}, fmt.Errorf("%w: executed() target %q lives on another shard than %q", wire.ErrCrossShard, target, anchor)
		}
	}
	if home == -1 && len(fp.Events) > 0 {
		// Event-only rule: home with the first event symbol's owner, which
		// minimizes relays (Events is sorted, so the choice is stable).
		home = p.Owner(fp.Events[0].Name)
	}
	if home == -1 {
		// Time-only condition: any shard works; shard 0 is the stable pick.
		home = 0
	}
	pl := Placement{Home: home}
	for _, use := range fp.Events {
		if s := p.Owner(use.Name); s != home {
			if constraint {
				return Placement{}, fmt.Errorf("%w: constraint observes event %q owned by another shard (constraints must be evaluable at commit on their home shard)", wire.ErrCrossShard, use.Name)
			}
			pl.RemoteEvents = append(pl.RemoteEvents, RemoteEvent{Shard: s, Use: use})
		}
	}
	return pl, nil
}

// RouteKeys returns the single shard owning every given key (item names
// and event symbols of one transaction), or an ErrCrossShard error when
// they span shards. With no keys at all the operation routes to shard 0
// (a timestamp-only commit touches no partitioned state).
func RouteKeys(p Partitioner, keys []string) (int, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	home := p.Owner(sorted[0])
	for _, k := range sorted[1:] {
		if p.Owner(k) != home {
			return 0, fmt.Errorf("%w: %q and %q hash to different shards", wire.ErrCrossShard, sorted[0], k)
		}
	}
	return home, nil
}
