module gopgas/benchmark

go 1.24

require gopgas v0.0.0

replace gopgas => ../
