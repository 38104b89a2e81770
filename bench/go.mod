module ptlactive/bench

go 1.22

require ptlactive v0.0.0

replace ptlactive => ../
