module kbt/bench

go 1.24

require kbt v0.0.0

replace kbt => ../
