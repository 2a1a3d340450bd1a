package sim

// Published reports how many drives the table has published and the bytes
// their reset streams retain.
func (t *Drives) Published() (drives, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, dr := range t.m {
		if dr.rs != nil {
			drives++
			bytes += dr.rs.bytes()
		}
	}
	return drives, bytes
}

// bytes is the memory the stream retains.
func (r *resetStream) bytes() int {
	return 8*cap(r.set) + 8*cap(r.vals) + 8*resetChunk*len(r.vals)
}
