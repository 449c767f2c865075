//! Sweeps the lookahead-window size for one application and prints a
//! miniature of the paper's Figure 3, including the static processors.
//!
//! Pass an application name (MP3D, LU, PTHOR, LOCUS, OCEAN) as the
//! first argument; defaults to OCEAN.
//!
//! Run with `cargo run --release --example window_sweep -- LU`.

use lookahead_harness::experiments::{figure3_cells, run_cell_specs, PAPER_WINDOWS};
use lookahead_harness::format::render_figure;
use lookahead_harness::pipeline::AppRun;
use lookahead_multiproc::SimConfig;
use lookahead_workloads::App;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "OCEAN".into());
    let app = App::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(&wanted))
        .ok_or_else(|| format!("unknown application {wanted}; try LU or MP3D"))?;

    // Smaller than the benchmark sizes so the example runs in seconds.
    let workload = app.small_workload();
    let config = SimConfig::default();
    let run = AppRun::generate(workload.as_ref(), &config)?;
    let cols = run_cell_specs(&run, &figure3_cells(&PAPER_WINDOWS));
    println!(
        "{}",
        render_figure(
            &format!("{} — window sweep (small problem size)", run.app),
            &cols
        )
    );
    Ok(())
}
