package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"merlin/internal/service"
)

// pinGolden solves the first count cold-solve nets of defaultSeed with a
// direct in-process Server.Route (no cache, default configuration) and
// writes their quality digests to path. Run it only when the program's
// answers change on purpose, and say why where the change is recorded.
func pinGolden(count int, path string) error {
	srv := service.New(service.Config{CacheSize: -1})
	defer srv.Shutdown(context.Background())
	nets := make([]digest, count)
	err := forEach(runtime.NumCPU(), count, func(i int) error {
		n := coldNet(defaultSeed, i)
		r, err := srv.Route(context.Background(), &service.RouteRequest{Net: n, NoCache: true})
		if err == nil {
			err = checkAnswer(n, r)
		}
		if err != nil {
			return err
		}
		nets[i] = digestOf(n, r)
		return nil
	})
	if err != nil {
		return err
	}
	// One net per line keeps the file diffable.
	var b strings.Builder
	fmt.Fprintf(&b, "{\"seed\": %d, \"nets\": [\n", defaultSeed)
	for i, d := range nets {
		line, err := json.Marshal(d)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(nets)-1 {
			sep = "\n"
		}
		b.Write(line)
		b.WriteString(sep)
	}
	b.WriteString("]}\n")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("pinned %d cold-solve digests of seed %d in %s\n", count, defaultSeed, path)
	return nil
}
