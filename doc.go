// Package wikistale is the root of a reproduction of "Detecting Stale Data
// in Wikipedia Infoboxes" (Barth et al., EDBT 2023).
//
// The implementation lives under internal/: the change-cube data model and
// its binary codec (internal/changecube), the durable epoch store
// (internal/epochstore), the wikitext and MediaWiki-dump ingest
// (internal/wikitext, internal/revision), the noise-filter pipeline
// (internal/filter), the field-correlation and
// association-rule change predictors (internal/correlation,
// internal/assocrules), baselines and ensembles (internal/baseline,
// internal/ensemble), the future-work extensions (internal/seasonal,
// internal/familycorr, internal/pagefamily, internal/values), the
// evaluation harness and figure rendering (internal/eval,
// internal/experiments, internal/figures), the orchestrating framework
// (internal/core), and the HTTP service (internal/staleserve).
//
// Executables are under cmd/ and runnable examples under examples/. The
// repository-level bench_test.go regenerates every table and figure of the
// paper's evaluation; see DESIGN.md and EXPERIMENTS.md.
package wikistale
