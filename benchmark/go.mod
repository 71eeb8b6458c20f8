// The benchmark is a module of its own so that it has its own build
// file and stays out of the root module's `go build ./... && go test
// ./...`: it measures the repository from the outside. The replace
// directive points at the checkout it sits in; importing
// repro/internal/... is legal because this module's path is below
// repro/.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
