package ptl

// CheckTraversal lets the external test package (which may import ptlgen;
// this one cannot, ptlgen imports ptl) run checkTraversal.
var CheckTraversal = checkTraversal
