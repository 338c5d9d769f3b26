// The benchmark is a module of its own so that the repository's own
// `go build ./...` and `go test ./...` never see it. Its path sits under
// `jupiter/`, which is what lets it import `jupiter/internal/...`.
module jupiter/bench

go 1.22

require jupiter v0.0.0

replace jupiter => ../
