module spam/benchmark

go 1.22

require spam v0.0.0

replace spam => ../
