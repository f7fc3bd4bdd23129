module seqtx/bench

go 1.22

require seqtx v0.0.0

replace seqtx => ../
