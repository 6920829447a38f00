module encompass/bench

go 1.24

require encompass v0.0.0

replace encompass => ../
