package serve

// Test hooks for the external serve_test package, whose tests drive the
// server through internal/serve/client (which imports serve, so those tests
// cannot live in package serve itself).

// SetFlushPause installs cfg's flushPause hook: it runs at the top of every
// shard flush, so a test can hold verdicts back for as long as it likes.
func SetFlushPause(cfg *Config, hook func()) { cfg.flushPause = hook }

// StartLabServer boots a server on the shared test lab's detector and
// registers its drain as cleanup.
var StartLabServer = startServer

// Lab returns the shared test lab: detector, dataset and corpus.
var Lab = lab
