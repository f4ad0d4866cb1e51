module cosoft/bench

go 1.22

require cosoft v0.0.0

replace cosoft => ../
