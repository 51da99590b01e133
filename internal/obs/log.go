package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level orders log severities from quietest to most verbose.
type Level int32

const (
	// LevelError logs only failures.
	LevelError Level = iota
	// LevelWarn adds recoverable anomalies.
	LevelWarn
	// LevelInfo adds one line per pipeline stage (remedyctl -v).
	LevelInfo
	// LevelDebug adds per-node / per-level detail (remedyctl -vv).
	LevelDebug
)

func (l Level) String() string {
	switch l {
	case LevelError:
		return "error"
	case LevelWarn:
		return "warn"
	case LevelInfo:
		return "info"
	case LevelDebug:
		return "debug"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// Logger writes leveled key=value lines. Loggers derived with Scope
// share the sink and mutex of their root and copy its level. All
// methods are no-ops on a nil receiver and On reports false, which lets
// hot paths guard formatting:
//
//	if lg.On(obs.LevelDebug) { lg.Debug("scanned", "level", lv) }
type Logger struct {
	mu    *sync.Mutex
	w     io.Writer
	level Level
	scope string
}

// NewLogger returns a logger writing to w at the given level.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{mu: &sync.Mutex{}, w: w, level: level}
}

// Scope returns a child logger that stamps every line with scope=name.
// Nested scopes join with "/".
func (l *Logger) Scope(name string) *Logger {
	if l == nil {
		return nil
	}
	child := *l
	if child.scope != "" {
		child.scope += "/" + name
	} else {
		child.scope = name
	}
	return &child
}

// On reports whether lines at the given level are emitted.
func (l *Logger) On(level Level) bool {
	return l != nil && l.level >= level
}

// Error logs at LevelError. kvs alternate key, value.
func (l *Logger) Error(msg string, kvs ...any) { l.log(LevelError, msg, kvs) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kvs ...any) { l.log(LevelWarn, msg, kvs) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kvs ...any) { l.log(LevelInfo, msg, kvs) }

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, kvs ...any) { l.log(LevelDebug, msg, kvs) }

func (l *Logger) log(level Level, msg string, kvs []any) {
	if !l.On(level) {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ts=%s level=%s", time.Now().Format("15:04:05.000"), level)
	if l.scope != "" {
		fmt.Fprintf(&b, " scope=%s", l.scope)
	}
	fmt.Fprintf(&b, " msg=%s", quoteIfNeeded(msg))
	for i := 0; i+1 < len(kvs); i += 2 {
		fmt.Fprintf(&b, " %v=%s", kvs[i], quoteIfNeeded(fmt.Sprint(kvs[i+1])))
	}
	if len(kvs)%2 == 1 {
		fmt.Fprintf(&b, " !odd=%s", quoteIfNeeded(fmt.Sprint(kvs[len(kvs)-1])))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	io.WriteString(l.w, b.String()) //lint:allow errdiscard log sink failures must not fail the caller
}

// quoteIfNeeded wraps values containing spaces, quotes, or '=' in
// quotes so lines stay machine-splittable on spaces.
func quoteIfNeeded(s string) string {
	if strings.ContainsAny(s, " \t\"=") || s == "" {
		return fmt.Sprintf("%q", s)
	}
	return s
}
