module fuseme/bench

go 1.22

require fuseme v0.0.0

replace fuseme => ../
