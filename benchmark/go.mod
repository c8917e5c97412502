module dmw/benchmark

go 1.22

require dmw v0.0.0

replace dmw => ../
