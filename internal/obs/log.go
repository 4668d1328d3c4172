package obs

import (
	"io"
	"log/slog"
	"runtime"
	"runtime/debug"
)

// NewLogger builds a slog.Logger for the -log-format flag: "json" selects
// the JSON handler, anything else the text handler. quiet raises the
// level to Warn so progress lines disappear but problems still surface.
func NewLogger(w io.Writer, format string, quiet bool) *slog.Logger {
	level := slog.LevelInfo
	if quiet {
		level = slog.LevelWarn
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h)
}

// moduleVersion reports the main module's version from build info, falling back
// to "devel" for plain `go build` trees without VCS stamping.
func moduleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// Runtime describes the running process for statusz build-info blocks.
func Runtime() (version, goVersion string, maxProcs int) {
	return moduleVersion(), runtime.Version(), runtime.GOMAXPROCS(0)
}
