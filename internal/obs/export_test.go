package obs

// SimHead exposes a snapshot stream's encoded head to the external tests,
// which check that snapshots share it.
func SimHead(s SimSnapshot) []byte { return s.head }
