package main

// Frozen workload sizes and open-loop rates. They are part of the benchmark's
// definition: a change to any of them is a change to the benchmark, after
// which every baseline is measured again. The open-loop rates are absolute
// numbers, picked once at about a third of the closed-loop capacity measured on
// the reference box (2 cores); nothing in the harness derives an offered load
// from a measurement of the code under test. bench/README.md says how each
// value was chosen.

type tpchSizes struct {
	SF             float64 // TPC-H scale factor handed to tpch.Generate
	OrdersPerEpoch int     // orders (with their lineitems) introduced per epoch
	WarmupEpochs   int     // untimed epochs that open each leg
	HeapFromEpoch  int     // the live heap is sampled after this warm-up epoch
	HeapEvery      int     // and every so many epochs after it
	InstallsPerLeg int     // times each query is installed (the last install goes on to stream)
	SetupReps      int     // times the set-up is repeated for the setup_s median
}

type graphSizes struct {
	Nodes, Edges     uint64  // preloaded graphs.Random(n, m, seed)
	StandingPerClass int     // standing queries per class (lookup, 1-hop, 2-hop, path)
	ChurnPerEpoch    int     // edge changes per epoch, half inserts, half removals
	RateEPS          float64 // epochs offered per second (absolute)
	InstallEvery     int     // in the run's second half, every n-th epoch one more query is installed and removed
	UnsharedInstalls int     // traced run: installs of the shared=false contrast leg
	SetupReps        int
}

type wireSizes struct {
	Layers, Width uint64  // the preloaded graph is a layered random DAG of Layers x Width vertices
	Edges         uint64  // its edge count; with the layering this bounds tc to some 10^4..10^5 pairs
	ChurnPerEpoch int     // edge changes per epoch
	RateEPS       float64 // epochs offered per second (absolute)
	InstallEvery  int     // in the run's second half, every n-th epoch a fresh restricted-TC plan is installed
	SetupReps     int
}

type spillSizes struct {
	Window         int     // epochs a tuple stays live; the preload (set-up) fills one window
	EpochsPerCycle int     // ingest epochs per cycle, acknowledged durable together
	WavesPerCycle  int     // read waves that follow them
	PerEpoch       int     // insertions per ingest epoch (and as many retractions, a window later)
	WaveKeys       int     // probe keys per read wave
	RangeFrac      float64 // share of a wave's keys that come as 64-key range scans
	KeyWindow      uint64  // fresh key range per ingest epoch (recency-skewed ids)
	InstallEvery   int     // every n-th cycle a count query is installed and removed
	CkptEvery      int     // Checkpoint() every n-th cycle
	WarmupCycles   int     // untimed cycles before the measured phase
	SpillBytes     int64   // resident budget per worker; about 10 % of the live trace
	SetupReps      int
}

type sizes struct {
	TPCH  tpchSizes
	Graph graphSizes
	Wire  wireSizes
	Spill spillSizes
}

// fullSizes is what BENCHMARK.json's command measures.
var fullSizes = sizes{
	TPCH: tpchSizes{SF: 0.2, OrdersPerEpoch: 100, WarmupEpochs: 240, HeapFromEpoch: 100, HeapEvery: 20, InstallsPerLeg: 16, SetupReps: 3},
	Graph: graphSizes{Nodes: 5000, Edges: 25000, StandingPerClass: 1, ChurnPerEpoch: 50,
		RateEPS: 100, InstallEvery: 8, UnsharedInstalls: 8, SetupReps: 5},
	Wire: wireSizes{Layers: 5, Width: 200, Edges: 1200, ChurnPerEpoch: 10, RateEPS: 50,
		InstallEvery: 2, SetupReps: 7},
	Spill: spillSizes{Window: 100, EpochsPerCycle: 10, WavesPerCycle: 2, PerEpoch: 2000, WaveKeys: 2000,
		RangeFrac: 0.2, KeyWindow: 256, InstallEvery: 4, CkptEvery: 10, WarmupCycles: 20,
		SpillBytes: 512 << 10, SetupReps: 3},
}

// toySizes keeps every code path of fullSizes at a size the tier-1 smoke test
// finishes in seconds.
var toySizes = sizes{
	TPCH: tpchSizes{SF: 0.004, OrdersPerEpoch: 50, WarmupEpochs: 6, HeapFromEpoch: 3, HeapEvery: 1, InstallsPerLeg: 2, SetupReps: 1},
	Graph: graphSizes{Nodes: 2000, Edges: 8000, StandingPerClass: 1, ChurnPerEpoch: 40,
		RateEPS: 100, InstallEvery: 5, UnsharedInstalls: 2, SetupReps: 1},
	Wire: wireSizes{Layers: 5, Width: 40, Edges: 240, ChurnPerEpoch: 6, RateEPS: 60,
		InstallEvery: 5, SetupReps: 1},
	Spill: spillSizes{Window: 10, EpochsPerCycle: 5, WavesPerCycle: 2, PerEpoch: 300, WaveKeys: 200,
		RangeFrac: 0.2, KeyWindow: 64, InstallEvery: 2, CkptEvery: 3, WarmupCycles: 2,
		SpillBytes: 16 << 10, SetupReps: 1},
}
