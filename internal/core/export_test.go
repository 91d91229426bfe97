package core

// ReadState reports how many reads this replica is serving and how many
// read keys it holds early confirms for (call inside Inspect).
func (r *Replica) ReadState() (pending, held int) { return len(r.reads), len(r.confirmBuf) }
