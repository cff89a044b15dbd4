// The benchmark is a module of its own so the repository's tier-1
// `go build ./... && go test ./...` never compiles or runs it; the
// replace directive lets it call the product's internal packages.
module perfplay/bench

go 1.23

require perfplay v0.0.0

replace perfplay => ../
