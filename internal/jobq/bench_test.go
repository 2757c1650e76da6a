package jobq

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"alice/internal/store"
)

// BenchmarkComplete times Complete, the service's memo-hit path, on a
// store journal with KeepDone 512. retained=0 stays below the bound (a
// fresh queue every 256 Completes, so no job is ever evicted);
// retained=600 registers 600 jobs before the timer starts, so every
// timed Complete also evicts the oldest retained job.
func BenchmarkComplete(b *testing.B) {
	const keep = 512
	for _, retained := range []int{0, 600} {
		b.Run(fmt.Sprintf("retained=%d", retained), func(b *testing.B) {
			dir := b.TempDir()
			var (
				q     *Queue
				js    *store.Store
				fresh int
			)
			stop := func() {
				if q != nil {
					q.Shutdown(context.Background())
					js.Close()
				}
			}
			start := func() {
				stop()
				fresh++
				var err error
				js, err = store.Open(filepath.Join(dir, fmt.Sprint(fresh)), store.Options{NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				if q, err = New(Options{Journal: js, KeepDone: keep, Handler: echoHandler}); err != nil {
					b.Fatal(err)
				}
				for range retained {
					if _, err := q.Complete([]byte("request"), []byte("answer"), SubmitOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			}
			defer stop()
			start()
			b.ResetTimer()
			for i := range b.N {
				if retained == 0 && i > 0 && i%(keep/2) == 0 {
					b.StopTimer()
					start()
					b.StartTimer()
				}
				if _, err := q.Complete([]byte("request"), []byte("answer"), SubmitOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
