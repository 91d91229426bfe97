module gridrep/benchmark

go 1.22

require gridrep v0.0.0

replace gridrep => ../
