module mplgo/benchmark

go 1.22

require mplgo v0.0.0

replace mplgo => ../
