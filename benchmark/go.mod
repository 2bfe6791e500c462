module qrdtm/benchmark

go 1.22

require qrdtm v0.0.0

replace qrdtm => ../
