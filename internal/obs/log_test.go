package obs

import (
	"strings"
	"sync"
	"testing"
)

type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestLoggerLevelsAndScope(t *testing.T) {
	var buf syncBuf
	lg := NewLogger(&buf, LevelInfo)
	lg.Debug("hidden")
	lg.Info("visible", "k", 1)
	lg.Scope("core").Scope("preload").Warn("nested scope")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("debug line leaked at info level:\n%s", out)
	}
	if !strings.Contains(out, "level=info") || !strings.Contains(out, "msg=visible") || !strings.Contains(out, "k=1") {
		t.Fatalf("info line malformed:\n%s", out)
	}
	if !strings.Contains(out, "scope=core/preload") {
		t.Fatalf("scope missing:\n%s", out)
	}
}

func TestLoggerQuoting(t *testing.T) {
	var buf syncBuf
	lg := NewLogger(&buf, LevelInfo)
	lg.Info("two words", "key", "a=b c")
	out := buf.String()
	if !strings.Contains(out, `msg="two words"`) || !strings.Contains(out, `key="a=b c"`) {
		t.Fatalf("values with spaces/= must be quoted:\n%s", out)
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var lg *Logger
	lg.Error("e")
	lg.Warn("w")
	lg.Info("i")
	lg.Debug("d")
	if lg.On(LevelError) {
		t.Fatal("nil logger must report all levels off")
	}
	if lg.Scope("x") != nil {
		t.Fatal("nil logger scope must stay nil")
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf syncBuf
	lg := NewLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lg.Scope("w").Info("line", "worker", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 8*50 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*50)
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "ts=") || !strings.Contains(ln, "msg=line") {
			t.Fatalf("interleaved/malformed line: %q", ln)
		}
	}
}
