package obs

// Metric names of the training fast path (DESIGN.md §10). The constants
// live here so the producing packages (correlation, core, ingest) and the
// serving layer agree on the spelling; registration happens lazily at the
// first use, help strings eagerly below.
const (
	// PagesSkippedTotal counts pages dropped from the pairwise correlation
	// search by Config.MaxFieldsPerPage, labeled by predictor
	// ("correlation"). Before this counter the quadratic-bound skip was
	// silent, which read as "covered everything" when it didn't.
	PagesSkippedTotal = "wikistale_train_pages_skipped_total"

	// IncrementalRetrainsTotal counts trainings whose correlation stage
	// ran incrementally (reusing rules of untouched pages).
	IncrementalRetrainsTotal = "wikistale_train_incremental_retrains_total"

	// IncrementalFullTotal counts trainings whose correlation stage
	// rebuilt every page, labeled by reason ("cold", "forced", "norm_span").
	IncrementalFullTotal = "wikistale_train_incremental_full_rebuilds_total"

	// IncrementalPagesReusedTotal counts pages whose rules were carried
	// over from the previous predictor unchanged.
	IncrementalPagesReusedTotal = "wikistale_train_incremental_pages_reused_total"

	// IncrementalPagesRetrainedTotal counts pages whose pairwise search was
	// actually re-run.
	IncrementalPagesRetrainedTotal = "wikistale_train_incremental_pages_retrained_total"

	// IncrementalDirtyFields is the size of the most recent training's
	// delta, which core derives once and every model stage shares: the
	// fields whose filtered histories differ from the previous training's
	// (0 on a cold or forced build).
	IncrementalDirtyFields = "wikistale_train_incremental_dirty_fields"
)

func init() {
	Default.SetHelp(PagesSkippedTotal, "Pages dropped from the pairwise correlation search by MaxFieldsPerPage.")
	Default.SetHelp(IncrementalRetrainsTotal, "Trainings whose correlation stage ran incrementally, reusing untouched pages' rules.")
	Default.SetHelp(IncrementalFullTotal, "Trainings whose correlation stage rebuilt every page, by reason (cold, forced, norm_span).")
	Default.SetHelp(IncrementalPagesReusedTotal, "Pages whose correlation rules were reused from the previous predictor.")
	Default.SetHelp(IncrementalPagesRetrainedTotal, "Pages whose pairwise correlation search was re-run.")
	Default.SetHelp(IncrementalDirtyFields, "Fields whose filtered history differs from the previous training's (added, vanished, or with other days): the delta every model stage of the most recent training retrained against; 0 on a cold or forced build.")
}
