module tilevm/benchmark

go 1.22

require tilevm v0.0.0

replace tilevm => ../
