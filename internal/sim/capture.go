package sim

import (
	"dgs/internal/astro"
	"dgs/internal/frames"
)

// capture generates new imagery and injects high-priority event
// captures for the current slot.
func (e *Engine) capture() {
	w := e.w
	cfg := &w.cfg

	// Capture new imagery. With DaylightImaging the imager only runs while
	// the satellite is over the sunlit hemisphere: the position vector has
	// a positive component toward the Sun. The sun vector is in TEME;
	// compare against the TEME position (rotate back).
	var sunX, sunY, sunZ float64
	if cfg.DaylightImaging {
		sunX, sunY, sunZ = astro.SunDirection(w.jd)
	}
	for i, s := range w.sats {
		if cfg.DaylightImaging {
			if !w.ecefs[i].OK {
				s.store.Skip(w.now)
				continue
			}
			teme := frames.ECEFToTEME(w.ecefs[i].Pos, w.jd)
			if teme.X*sunX+teme.Y*sunY+teme.Z*sunZ <= 0 {
				s.store.Skip(w.now)
				continue
			}
		}
		s.store.Generate(w.now)
	}

	// High-priority event injection, at the period computed once per run.
	// Event chunks are exactly the Priority > 0 ones: their latency is
	// accounted separately on delivery.
	if w.eventPeriod > 0 {
		for _, s := range w.sats {
			for !s.nextEvent.IsZero() && !w.now.Before(s.nextEvent) {
				s.store.AddChunk(s.nextEvent, w.eventBits, 10)
				s.nextEvent = s.nextEvent.Add(w.eventPeriod)
			}
		}
	}
}
