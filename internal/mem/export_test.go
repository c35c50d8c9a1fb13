package mem

// ArenaStats reports the arenas the space has made and the words they
// hold: every class chunk's backing array, counted once, free or owned.
func (s *Space) ArenaStats() (arenas int, words int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[*arena]bool{}
	for _, e := range s.ext {
		if e.arena != nil && !seen[e.arena] {
			seen[e.arena] = true
			words += int64(len(e.arena.data))
		}
	}
	return len(seen), words
}
