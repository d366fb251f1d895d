package ftrma

// newBenchLogStore builds a LogStore with default tuning for benchmarks.
func newBenchLogStore() *LogStore { return newLogStore(Config{}.logTuning()) }
