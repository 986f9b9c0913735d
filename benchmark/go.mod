module hohtx/benchmark

go 1.22

require hohtx v0.0.0

replace hohtx => ../
