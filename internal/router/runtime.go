package router

// ShardRuntime materialises shards that the topology declares without an
// address: resrouter plugs in an in-process runtime (-spawn), the
// supervisor plugs in one that forks resilientd child processes, and
// tests plug in MockRuntime. The router calls Start when a topology entry
// names no addr, and Stop when such a shard is removed (or at Shutdown).
//
// Start must return the base URL the shard listens on (e.g.
// "http://127.0.0.1:9000") with the shard already accepting connections —
// the router routes to it immediately. Start may be called again for a
// name that was stopped earlier (a reload that drops the entry followed by
// one that names it again);
// runtimes should treat that as a fresh launch. Stop must be idempotent.
type ShardRuntime interface {
	Start(name string) (addr string, err error)
	Stop(name string) error
}
