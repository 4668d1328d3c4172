package supervisor

import (
	"log/slog"
	"time"
)

// LogEvents adapts a structured logger into Supervise's onEvent hook:
// every lifecycle transition becomes one slog line with typed fields,
// routine starts and stops at Info, crashes and failed launches at Warn.
// The field names are part of the operational contract (the obs tests
// parse them), so change them like any other schema.
func LogEvents(log *slog.Logger) func(Event) {
	return func(ev Event) {
		args := []any{
			slog.String("child", ev.Name),
			slog.String("kind", ev.Kind),
		}
		if ev.PID != 0 {
			args = append(args, slog.Int("pid", ev.PID))
		}
		if ev.Err != nil {
			args = append(args, slog.String("error", ev.Err.Error()))
		}
		if ev.Backoff > 0 {
			args = append(args, slog.Float64("backoff_ms", float64(ev.Backoff)/float64(time.Millisecond)))
		}
		args = append(args, slog.Int("restarts", ev.Restarts))
		if ev.Kind == "exit" || ev.Kind == "start-error" {
			log.Warn("supervised child down", args...)
		} else { // "start", "stop"
			log.Info("supervised child "+ev.Kind, args...)
		}
	}
}
