# DGS reproduction — build/test entry points. `make ci` is the gate;
# performance is measured by `go run ./bench` (see bench/README.md).

.PHONY: all build test ci serve federate

all: build

build:
	go build ./...

test:
	go test ./...

ci:
	./ci.sh

# serve runs the HTTP query API over the paper's full population on the
# default port; see README "Querying the network over HTTP".
serve:
	go run ./cmd/dgs-api

# federate runs the same API as a sharded fleet: two dgs-shard backends
# each owning half the constellation plus a merging front tier on :8045.
# Ctrl-C tears all three down; see README "Sharding the control plane".
federate:
	go build -o bin/dgs-shard ./cmd/dgs-shard
	go build -o bin/dgs-api ./cmd/dgs-api
	@trap 'kill 0' INT TERM EXIT; \
	bin/dgs-shard -listen 127.0.0.1:9050 -shard 0 -shards 2 & \
	bin/dgs-shard -listen 127.0.0.1:9051 -shard 1 -shards 2 & \
	sleep 1; \
	bin/dgs-api -listen 127.0.0.1:8045 -shards 127.0.0.1:9050,127.0.0.1:9051 & \
	wait
