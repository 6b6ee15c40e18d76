# Convenience targets for the Mermaid workbench reproduction.

.PHONY: all build vet test bench experiments examples cover check fmt apicheck api

all: build vet test

# Everything CI runs: formatting, vet, build, the full test suite under
# the race detector, and the exported-API guard.
check: fmt vet build apicheck
	go test -race ./...

# Fail when the exported API surface of internal/... drifts from the
# checked-in golden. After an intentional API change, regenerate with
# `make api` and commit API.txt alongside the change.
apicheck:
	go run ./cmd/apidiff

api:
	go run ./cmd/apidiff -write

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Regenerate the paper's evaluation tables (EXPERIMENTS.md).
experiments:
	go run ./cmd/mermaid -experiment all

# Kernel micro-benchmarks, six repetitions each so medians are stable. The
# end-to-end and per-layer numbers (slowdown per processor, sharding, farm,
# routing, analyzer overhead) come from `go run ./benchmark`; the design-study
# benchmarks of bench_test.go run with `go test -bench . .`.
bench:
	go test -run '^$$' -bench . -benchmem -count=6 ./internal/pearl

examples:
	go run ./examples/quickstart
	go run ./examples/cachestudy
	go run ./examples/topostudy
	go run ./examples/hybridcluster
	go run ./examples/dsmstencil

cover:
	go test -cover ./internal/...
