# Developer entry points. CI runs the same steps (.github/workflows/ci.yml).

GO ?= go
VET_BIN := $(CURDIR)/bin/pmblade-vet

.PHONY: build test race vet pmblade-vet vet-baseline crash scrub-soak bench-smoke stress-compact stress-snapshot scoreboard verify clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Run the invariant analyzers both ways: standalone (whole module from
# source, so the interprocedural analyzers see cross-package summaries; this
# is the run the baseline gates) and through go vet's driver so the degraded
# export-data mode stays exercised and cached per package.
pmblade-vet:
	$(GO) build -o $(VET_BIN) ./cmd/pmblade-vet
	cd $(CURDIR) && $(VET_BIN) -baseline vet-baseline.json ./...
	$(GO) vet -vettool=$(VET_BIN) ./...

# Regenerate vet-baseline.json from the current findings, preserving the
# justifications of entries that survive. New entries get a TODO placeholder
# that must be replaced before check-in.
vet-baseline:
	$(GO) build -o $(VET_BIN) ./cmd/pmblade-vet
	cd $(CURDIR) && $(VET_BIN) -write-baseline vet-baseline.json ./...

# Crash-point torture matrix: exhaustive enumeration on two seeds plus a
# checkpoint-heavy run. Any failure prints its -seed/-ops/-point reproduction.
crash:
	$(GO) run ./cmd/pmblade-crash -seed 1 -ops 1000 -q
	$(GO) run ./cmd/pmblade-crash -seed 42 -ops 400 -checkpoint-every -1 -q
	$(GO) run ./cmd/pmblade-crash -seed 99 -ops 300 -checkpoint-every 10 -q

# Seeded bit-rot soak: at-rest corruption is injected into live PM and SSD
# table images, then the scrub → quarantine → restart → repair lifecycle is
# checked end to end (100% detection, no wrong value served, readability
# restored). Any failure prints its -scrub -seed/-ops/-rots reproduction.
scrub-soak:
	$(GO) run ./cmd/pmblade-crash -scrub -seed 1 -rots 50 -q
	$(GO) run ./cmd/pmblade-crash -scrub -seed 7 -ops 600 -rots 60 -q

# One iteration of every engine benchmark: catches benchmarks that no longer
# compile or crash, without measuring anything.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Engine' -benchtime=1x .

# Concurrent-eviction stress: a seeded mixed workload against a tiny PM that
# forces repeated cost-based evictions while writers and readers run, under
# the race detector, plus the pause-free-eviction acceptance tests. Then the
# stress alone, 50 times on one P without the detector (about 10 s): that is
# where a writer that treats a full PM as a failure instead of a stall shows
# up as "pmem: out of space" (5-10 % of such runs before the flush loop).
# The quarantine races ride along: readers spinning on a table while it is
# quarantined under them, and a state held across a repair, under the
# detector with the corpse-lifecycle table, then 10 times on real scheduling
# (400 rounds per device and detection path; a quarantine that detaches before
# it publishes its range lied in a third of them).
stress-compact:
	$(GO) test -race -count=1 -run 'TestStressCompactEvict|TestEvictionDoesNotBlockPreservedPuts|TestEvictionVictimFaultIsolation|TestConcurrentEvictTriggersJoinOnePass|TestQuarantineNeverLiesMidDetach|TestRepairNeverLiesToAHeldState|TestCorpseLifecycle' ./internal/engine
	GOMAXPROCS=1 $(GO) test -count=50 -run TestStressCompactEvict ./internal/engine
	$(GO) test -count=10 -run 'TestQuarantineNeverLiesMidDetach|TestRepairNeverLiesToAHeldState' ./internal/engine

# Snapshot-isolation stress: concurrent batch writers against snapshot
# Scan/MultiGet readers and plain Scans that walk two partitions (no torn
# batch, no vanished key) — 20 runs on real scheduling, where the
# interleavings that used to tear show up, then 3 under the race detector
# together with the visibility regression tests, iterator pinning across
# flush + major compaction, the one-partition-per-scan walk, and the memtable
# probe that guards findGE against a concurrent insert. The commit-turn tests
# ride along at the same counts: eight writers against 2 KiB memtables must
# leave tiers and log in sequence order, live and after a crash.
TURN_TESTS := TestTierOrderIsSequenceOrder|TestLogOrderIsSequenceOrder|TestTierOrderSurvivesCrash|TestRotationBetweenTwoWritersKeepsTierOrder|TestQueuedWritersShareOneLogWrite
stress-snapshot:
	$(GO) test -count=20 -run 'TestSnapshotNoTornBatches|$(TURN_TESTS)' ./internal/engine
	$(GO) test -race -count=3 -run 'TestSnapshotNoTornBatches|TestSnapshotBasic|TestScanOverwriteAfterSnapshot|TestIteratorPinnedAcrossCompaction|TestReadStateOutlivesInstalls|TestScanOpensOnlyPartitionsItReads|$(TURN_TESTS)' ./internal/engine
	$(GO) test -race -count=3 -run 'TestGetReturnsPublishedVersionUnderAppends' ./internal/memtable

# Code-diet scoreboard: non-test Go lines per internal package, the number of
# engine.Config fields, the engine-mode branch sites outside tests (where
# level-0 is built, and the internal-compaction trigger switches), three
# structural counts — where internal/engine calls compaction.Run, where it
# builds a merging iterator (one: the range-read cursor) and how many
# functions it marks as doing compaction I/O — the synchronisation fields
# (Mutex, RWMutex, Cond, chan) of engine.DB and engine.partition, and the two
# counts that say table lifecycle is written once: the lines of internal/engine
# (tests and metrics.go's Tier.String aside) that spell a device class as a
# string literal, and the retirement queues / corpse containers engine.DB and
# engine.partition keep.
MODE_BRANCH := cfg\.(Level0OnPM|InternalCompaction|CostBased)
DB_FIELDS = awk '/^type (DB|partition) struct/{f=1;next} f&&/^}/{f=0} f&&$$1~RE&&$$2!~/Mutex/{n++} END{print n+0}'
scoreboard:
	@for d in internal/*/; do \
		printf '%-28s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l); \
	done
	@printf '%-28s %6d\n' 'engine.Config fields' $$(awk '/^type Config struct/{f=1;next} f&&/^}/{exit} f&&/^\t[A-Z]/{n++} END{print n}' internal/engine/config.go)
	@printf '%-28s %6d\n' 'mode-branch sites' $$(grep -nE '$(MODE_BRANCH)' internal/engine/*.go | grep -v _test | wc -l)
	@printf '%-28s %6d\n' 'compaction.Run call sites' $$(grep -n 'compaction\.Run(' internal/engine/*.go | grep -v _test | wc -l)
	@printf '%-28s %6d\n' 'range-read merge sites' $$(grep -n 'kv\.NewMergingIterator' internal/engine/*.go | grep -v _test | wc -l)
	@printf '%-28s %6d\n' '//pmblade:compacts roots' $$(grep -n '^//pmblade:compacts' internal/engine/*.go | grep -v _test | wc -l)
	@printf '%-28s %6d\n' 'DB+partition sync fields' $$(awk '/^type (DB|partition) struct/{f=1;next} f&&/^}/{f=0} f&&/^\t[A-Za-z]/&&$$0~SYNC{n++} END{print n}' SYNC='[ \t*](sync\.(RW)?Mutex|sync\.Cond|chan )' internal/engine/engine.go)
	@printf '%-28s %6d\n' 'device-literal sites' $$(cat $$(ls internal/engine/*.go | grep -v -e _test.go -e metrics.go) | grep -cE '"ssd"|"pm"')
	@printf '%-28s %4d/%d\n' 'retire queues/corpse regs' $$($(DB_FIELDS) RE='^obsolete' internal/engine/engine.go) $$($(DB_FIELDS) RE='^corpses$$' internal/engine/engine.go)

# verify is the pre-merge gate: everything CI checks, in one target.
verify: build vet pmblade-vet race stress-compact stress-snapshot crash scrub-soak bench-smoke

clean:
	rm -rf bin
