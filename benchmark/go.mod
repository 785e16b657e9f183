module abivm/benchmark

go 1.22

require abivm v0.0.0

replace abivm => ../
