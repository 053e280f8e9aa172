package cfg

import "repro/internal/vm"

// Plugin feeds first-time basic-block executions into a shared CFG
// database. The database persists across VM instances (runs), so the CFG
// knowledge accumulates over the application's lifetime in the community,
// exactly like the paper's "database of known control flow graphs".
type Plugin struct {
	DB *DB
}

// NewPlugin wraps a CFG database as an execution-environment plugin.
func NewPlugin(db *DB) *Plugin { return &Plugin{DB: db} }

// Name implements vm.Plugin.
func (p *Plugin) Name() string { return "cfg" }

// Instrument implements vm.Plugin: entering the code cache is the block's
// first execution, which is the discovery trigger of §2.2.3. Noting the
// block is a side effect, so the plugin does not implement vm.BlockSharer
// and a machine that runs it builds a private code table.
func (p *Plugin) Instrument(b *vm.Block) {
	p.DB.NoteBlockExec(b.Start)
}
