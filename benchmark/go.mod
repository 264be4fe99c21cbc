module seastar/benchmark

go 1.22

require seastar v0.0.0

replace seastar => ../
