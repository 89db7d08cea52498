package serve

import (
	"context"
	"time"
)

// The idle-TTL reaper closes sessions no client has touched for
// Config.IdleTTL: an abandoned session (client crashed, operator forgot a
// curl loop) otherwise holds one of the global pool.Slots — and its board
// state and trace ring — until the daemon restarts. Reaping is off by
// default; it discards the session's state exactly like an explicit DELETE,
// write-ahead log included.

// ReapIdle closes every session whose last client activity (any
// session-scoped request: step, trip, status, trace) is at least
// Config.IdleTTL ago, releasing its global slot and discarding its
// write-ahead log. It returns how many sessions were reaped and is a no-op
// while IdleTTL is unset, the daemon is draining (drain owns the table) or
// recovery has not finished. Reaped sessions count into
// serve_sessions_reaped_total.
func (s *Server) ReapIdle() (reaped int) {
	ttl := s.cfg.IdleTTL
	if ttl <= 0 {
		return 0
	}
	now := s.cfg.Now()
	s.mu.Lock()
	if s.draining || s.recovering {
		s.mu.Unlock()
		return 0
	}
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	for _, id := range ids {
		s.mu.Lock()
		sess := s.sessions[id]
		s.mu.Unlock()
		if sess == nil {
			continue
		}
		sess.mu.Lock()
		idle := now.Sub(sess.lastActive)
		sess.mu.Unlock()
		if idle < ttl {
			continue
		}
		if s.unregister(id) == nil {
			continue // lost the race to an explicit DELETE
		}
		sess.closeWatchers()
		if err := sess.removeLog(); err != nil {
			s.log.Warn("session log removal not durable", "session", id, "err", err)
		}
		s.slots.Release()
		s.reg.Counter("serve_sessions_reaped_total").Add(1)
		s.log.Info("session reaped", "session", id, "tenant", sess.tenant,
			"idle", idle.String())
		reaped++
	}
	if reaped > 0 {
		s.reg.Gauge("serve_sessions_live").Set(int64(s.slots.InUse()))
	}
	return reaped
}

// RunReaper calls ReapIdle every interval until ctx is cancelled —
// cmd/yukta-serve runs it as a background goroutine when -idle-ttl is set.
func (s *Server) RunReaper(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.ReapIdle()
		}
	}
}
