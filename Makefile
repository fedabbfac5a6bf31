# Local and CI invocations are identical: .github/workflows/ci.yml calls
# these targets, so a green `make check` locally means a green CI run.

GO ?= go

.PHONY: build test race lint vet-portable bench bench-sim bench-train fuzz perfbench-check check fmt

build: ## compile every package
	$(GO) build ./...

test: ## run the tier-1 test suite
	$(GO) test ./...

race: ## run the test suite under the race detector
	$(GO) test -race -timeout 30m ./...

lint: ## gofmt (fail on diff), go vet, and the evaxlint suite
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/evaxlint ./...

vet-portable: ## go vet for arm64, so the non-assembly (portable) code paths keep compiling
	GOARCH=arm64 $(GO) vet ./...

bench: ## run the microbenchmarks
	$(GO) test -bench=. -benchmem -run=^$$ .

bench-sim: ## one pass of the simulator benchmarks (instr/s, B/instr; fails if the attack goes inert)
	$(GO) test -run '^$$' -bench 'SimulatorThroughput|AttackSimulation' -benchtime 1x .

bench-train: ## one pass of the AM-GAN training benchmark at the lab's shape, and of the forward kernel at the generator's layer shapes
	$(GO) test -run '^$$' -bench 'AMGANTrain' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'MulAddRows' -benchtime 1000x ./internal/vec

fuzz: ## 5 s mutation pass over every fuzz target in the module
	@set -e; $(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$dir"/*_test.go 2>/dev/null); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s "$$pkg"; \
		done; \
	done

perfbench-check: ## build, vet and test the benchmark module, which imports this one through its replace
	cd perfbench && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

fmt: ## rewrite sources with gofmt
	gofmt -w .

check: build lint vet-portable test ## everything except race/bench (fast pre-push gate)
