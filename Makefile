# DGS reproduction — build/test entry points. `make ci` is the gate;
# performance is measured by `go run ./bench` (see bench/README.md).

.PHONY: all build test ci serve

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
