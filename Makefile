# Convenience targets; verify.sh is the canonical sequence.

.PHONY: verify verify-short build test race lint lint-fix bench bench-plan bench-kernel obs-bench

verify:
	./verify.sh

verify-short:
	./verify.sh -short

build:
	go build ./...

test:
	go test ./...

race:
	go test -race $$(./verify.sh -race-pkgs)

lint:
	go run ./cmd/kwslint ./...

lint-fix:
	go run ./cmd/kwslint -fix ./...

bench:
	go run ./cmd/benchrunner

bench-plan:
	go test -bench 'PlanCache|Enumerate' -benchmem -run zz ./internal/plan/

bench-kernel:
	go test -bench CNKernelHub -benchmem -run zz .

obs-bench:
	go test -bench ObsSuiteOverhead -benchmem -run zz .
	go run ./cmd/benchrunner -obs-overhead
