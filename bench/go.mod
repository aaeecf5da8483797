module rdfcube/bench

go 1.24

require rdfcube v0.0.0

replace rdfcube => ../
