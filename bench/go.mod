module rlgraph/bench

go 1.22

require rlgraph v0.0.0

replace rlgraph => ../
