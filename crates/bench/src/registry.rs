//! The experiment table behind `atos-bench <experiment>`.
//!
//! The paper's evaluation is one regular object — framework × dataset ×
//! GPU-count grids over two systems, plus a handful of one-off
//! measurements — so what the driver can run is data: [`EXPERIMENTS`] has
//! one row per artifact, and the six pure grids (Tables II/IV/V, Figures
//! 5/8/9) are [`GridSpec`] values executed by the one [`run_grid`]. The
//! trajectory's quick workloads and the determinism tests enumerate their
//! cells from the same rows ([`GridSpec::cells`]), so "which cells are
//! Figure 5" is stated exactly once.

use atos_core::RunStats;
use atos_graph::generators::{Preset, Scale};

use crate::sweep::{BenchArgs, SweepRunner};
use crate::{experiments, frameworks, observability, relative_speedup, round_sig};
use crate::{run_cell, App, Dataset, System};

/// One row of the experiment table.
pub struct Experiment {
    /// Name on the command line — also the name `results/README.md` and
    /// EXPERIMENTS.md refer to.
    pub name: &'static str,
    /// One line for the usage table.
    pub about: &'static str,
    /// What it executes.
    pub body: Body,
}

/// How an [`Experiment`] is executed.
pub enum Body {
    /// A framework comparison grid, executed by [`run_grid`].
    Grid(GridSpec),
    /// A one-off measurement that prints its table to stdout.
    Custom(fn(&BenchArgs)),
}

/// The one experiment that writes run artifacts (`--trace`, `--metrics`).
pub const REFERENCE: &str = "reference";

/// Everything `atos-bench` can run, in the order the usage table prints.
pub static EXPERIMENTS: [Experiment; 15] = [
    Experiment {
        name: "table1_datasets",
        about: "Table I: the six scaled datasets (sizes, diameter, degrees)",
        body: Body::Custom(experiments::table1_datasets),
    },
    Experiment {
        name: "table2_bfs_nvlink",
        about: "Table II: BFS runtimes on NVLink, four frameworks x six datasets",
        body: Body::Grid(GridSpec {
            title: "Table II: BFS runtimes in ms (speedup vs Gunrock) on Daisy (NVLink)",
            system: System::Nvlink,
            apps: &[App::Bfs],
            datasets: Datasets::All,
            max_gpus: 4,
            render: Render::Runtimes,
        }),
    },
    Experiment {
        name: "table3_priority_workload",
        about: "Table III: BFS redundant work without/with the priority queue, plus SSSP",
        body: Body::Custom(experiments::table3_priority_workload),
    },
    Experiment {
        name: "table4_pr_nvlink",
        about: "Table IV: PageRank runtimes on NVLink, four frameworks x six datasets",
        body: Body::Grid(GridSpec {
            title: "Table IV: PageRank runtimes in ms (speedup vs Gunrock) on Daisy (NVLink)",
            system: System::Nvlink,
            apps: &[App::PageRank],
            datasets: Datasets::All,
            max_gpus: 4,
            render: Render::Runtimes,
        }),
    },
    Experiment {
        name: "table5_ib",
        about: "Table V: BFS and PageRank runtimes on InfiniBand, Galois vs Atos",
        body: Body::Grid(GridSpec {
            title: "Table V: BFS and PageRank runtimes in ms (speedups vs Galois) on Summit (IB)",
            system: System::Ib,
            apps: &[App::Bfs, App::PageRank],
            datasets: Datasets::All,
            max_gpus: 8,
            render: Render::Runtimes,
        }),
    },
    Experiment {
        name: "fig1_queue",
        about: "Figure 1: queue push/pop microbenchmarks on real host threads (wall clock)",
        body: Body::Custom(experiments::fig1_queue),
    },
    Experiment {
        name: "fig2_efficiency",
        about: "Figure 2: bandwidth efficiency vs requested bytes, PCIe 3 and NVLink",
        body: Body::Custom(experiments::fig2_efficiency),
    },
    Experiment {
        name: "fig4_ib_sweep",
        about: "Figure 4: InfiniBand latency and bandwidth vs message size",
        body: Body::Custom(experiments::fig4_ib_sweep),
    },
    Experiment {
        name: "fig5_scaling_nvlink",
        about: "Figure 5: BFS and PageRank strong scaling on NVLink, self-relative",
        body: Body::Grid(GridSpec {
            title: "\nFigure 5 ({app}): relative speedup vs own 1-GPU runtime",
            system: System::Nvlink,
            apps: &[App::Bfs, App::PageRank],
            datasets: Datasets::Scaling,
            max_gpus: 4,
            render: Render::SelfRelative,
        }),
    },
    Experiment {
        name: "fig7_summit_node",
        about: "Figures 6-7: Gunrock vs Atos strong scaling on one dual-socket Summit node",
        body: Body::Custom(experiments::fig7_summit_node),
    },
    Experiment {
        name: "fig8_scaling_ib_bfs",
        about: "Figure 8: BFS strong scaling on InfiniBand, self-relative",
        body: Body::Grid(GridSpec {
            title: "Figure 8: BFS strong scaling on Summit (IB), self-relative",
            system: System::Ib,
            apps: &[App::Bfs],
            datasets: Datasets::Scaling,
            max_gpus: 8,
            render: Render::SelfRelative,
        }),
    },
    Experiment {
        name: "fig9_scaling_ib_pr",
        about: "Figure 9: PageRank strong scaling on InfiniBand, self-relative",
        body: Body::Grid(GridSpec {
            title: "Figure 9: PageRank strong scaling on Summit (IB), self-relative",
            system: System::Ib,
            apps: &[App::PageRank],
            datasets: Datasets::Scaling,
            max_gpus: 8,
            render: Render::SelfRelative,
        }),
    },
    Experiment {
        name: "ablation_smoothing",
        about: "Ablation: traffic burstiness per framework (communication smoothing)",
        body: Body::Custom(experiments::ablation_smoothing),
    },
    Experiment {
        name: "ablation_worker",
        about: "Ablation: worker granularity (thread/warp/CTA) x fetch size",
        body: Body::Custom(experiments::ablation_worker),
    },
    Experiment {
        name: REFERENCE,
        about: "One instrumented BFS run; writes --trace / --metrics artifacts",
        body: Body::Custom(observability::reference),
    },
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The grid behind experiment `name`; panics if `name` is not a grid row
/// (callers name rows of this file's table).
pub fn grid(name: &str) -> &'static GridSpec {
    match find(name).map(|e| &e.body) {
        Some(Body::Grid(spec)) => spec,
        _ => panic!("`{name}` is not a grid experiment"),
    }
}

/// The usage text: one line per experiment, then the flags.
pub fn usage() -> String {
    let mut out = String::from("usage: atos-bench <experiment> [flags]\n\nexperiments:\n");
    for e in &EXPERIMENTS {
        out.push_str(&format!("  {:<26}{}\n", e.name, e.about));
    }
    out.push_str(
        "\nflags: --quick, --threads N;\n\
         `reference` alone accepts --trace PATH, --metrics PATH\n",
    );
    out
}

impl Experiment {
    /// `Err` naming the first flag in `args` this experiment cannot
    /// honour, so the run is refused instead of silently ignoring it.
    pub fn check_flags(&self, args: &BenchArgs) -> Result<(), String> {
        if self.name != REFERENCE {
            let artifact = [("--trace", &args.trace), ("--metrics", &args.metrics)];
            if let Some((flag, _)) = artifact.iter().find(|(_, path)| path.is_some()) {
                return Err(format!(
                    "{} does not support {flag}: only `{REFERENCE}` writes run artifacts",
                    self.name
                ));
            }
        }
        Ok(())
    }

    /// Execute the experiment.
    pub fn run(&self, args: &BenchArgs) {
        match &self.body {
            Body::Grid(spec) => run_grid(spec, args),
            Body::Custom(f) => f(args),
        }
    }
}

/// A framework comparison: every framework of `system` for each of
/// `apps`, on each dataset, at 1..=`max_gpus` GPUs.
pub struct GridSpec {
    /// The heading. [`Render::Runtimes`] prints it once; a
    /// [`Render::SelfRelative`] figure prints it per application with
    /// `{app}` replaced by the application's label.
    pub title: &'static str,
    /// Which fabric, and with it which frameworks ([`frameworks`]).
    pub system: System,
    /// The applications compared, in output order.
    pub apps: &'static [App],
    /// The dataset rows.
    pub datasets: Datasets,
    /// GPU counts run from 1 to this.
    pub max_gpus: usize,
    /// How the runtimes are presented.
    pub render: Render,
}

/// Which datasets a grid covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Datasets {
    /// All six Table I presets.
    All,
    /// The four strong-scaling presets ([`Preset::SCALING`]).
    Scaling,
}

/// How a grid's runtimes are presented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Render {
    /// Paper-style tables of virtual ms, one block per (application,
    /// framework), speedups against the system's first framework.
    Runtimes,
    /// Strong-scaling figures: each framework's speedup over its own
    /// 1-GPU runtime, one block per (application, dataset).
    SelfRelative,
}

/// One simulated run of a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Application.
    pub app: App,
    /// Index into [`GridSpec::datasets`].
    pub dataset: usize,
    /// Index into [`frameworks`]`(system, app)`.
    pub framework: usize,
    /// GPU count.
    pub gpus: usize,
}

impl GridSpec {
    /// Names of the grid's dataset presets, in row order.
    fn dataset_names(&self) -> Vec<&'static str> {
        match self.datasets {
            Datasets::All => Preset::ALL.iter().map(|p| p.name).collect(),
            Datasets::Scaling => Preset::SCALING.to_vec(),
        }
    }

    /// The grid's datasets built at `scale`, in row order.
    pub fn datasets(&self, scale: Scale) -> Vec<Dataset> {
        self.dataset_names()
            .iter()
            .map(|n| Dataset::named(n, scale))
            .collect()
    }

    /// Every cell, ordered application → dataset → framework → GPU count
    /// (so each run of `max_gpus` consecutive cells is one scaling series).
    pub fn cells(&self) -> Vec<Cell> {
        let n_datasets = self.dataset_names().len();
        let mut cells = Vec::new();
        for &app in self.apps {
            for dataset in 0..n_datasets {
                for framework in 0..frameworks(self.system, app).len() {
                    for gpus in 1..=self.max_gpus {
                        cells.push(Cell {
                            app,
                            dataset,
                            framework,
                            gpus,
                        });
                    }
                }
            }
        }
        cells
    }

    /// Run one of [`GridSpec::cells`] on `datasets` (from
    /// [`GridSpec::datasets`]).
    pub fn run_cell(&self, cell: &Cell, datasets: &[Dataset]) -> RunStats {
        let ds = &datasets[cell.dataset];
        let (_, framework) = frameworks(self.system, cell.app)[cell.framework];
        run_cell(self.system, cell.app, framework, ds, cell.gpus)
    }
}

/// Execute a grid: fan its cells over the sweep workers, then print the
/// tables. Results are keyed by cell index, so stdout is byte-identical
/// at any `--threads` setting.
pub fn run_grid(spec: &GridSpec, args: &BenchArgs) {
    let datasets = spec.datasets(args.scale);
    let ms = SweepRunner::new(args.threads).run(&spec.cells(), |_, cell| {
        spec.run_cell(cell, &datasets).elapsed_ms()
    });
    let gpus: Vec<usize> = (1..=spec.max_gpus).collect();
    // One scaling series per (application, dataset, framework), consumed
    // in cell order.
    let mut series = ms.chunks(spec.max_gpus);
    if spec.render == Render::Runtimes {
        println!("{}", spec.title);
    }
    for &app in spec.apps {
        let fws = frameworks(spec.system, app);
        let by_dataset: Vec<Vec<&[f64]>> = datasets
            .iter()
            .map(|_| {
                fws.iter()
                    .map(|_| series.next().expect("one series per cell run"))
                    .collect()
            })
            .collect();
        match spec.render {
            Render::Runtimes => {
                let rows = |f: usize| -> Vec<(String, &[f64])> {
                    datasets
                        .iter()
                        .zip(&by_dataset)
                        .map(|(ds, s)| {
                            (
                                format!("{}{}", ds.preset.name, ds.preset.kind.suffix()),
                                s[f],
                            )
                        })
                        .collect()
                };
                let baseline = rows(0);
                for (f, (fw, _)) in fws.iter().enumerate() {
                    let base = (f > 0).then_some(baseline.as_slice());
                    print_table_block(&format!("{} on {fw}", app.label()), &gpus, &rows(f), base);
                }
            }
            Render::SelfRelative => {
                println!("{}", spec.title.replace("{app}", app.label()));
                // The NVLink framework names are long; the IB figures have
                // twice the columns.
                let (name_w, col_w, unit) = match spec.system {
                    System::Nvlink => (40, 10, " GPU"),
                    System::Ib => (10, 8, "GPU"),
                };
                for (ds, s) in datasets.iter().zip(&by_dataset) {
                    println!("\n-- {} --", ds.preset.name);
                    print!("{:<name_w$}", "framework");
                    for g in &gpus {
                        print!("{:>col_w$}", format!("{g}{unit}"));
                    }
                    println!();
                    for ((fw, _), series) in fws.iter().zip(s) {
                        print!("{fw:<name_w$}");
                        for r in relative_speedup(series) {
                            print!("{r:>col_w$.2}");
                        }
                        println!();
                    }
                }
            }
        }
    }
}

/// Print one paper-style table block: rows = datasets, cols = GPU counts,
/// speedups vs `baseline` (same-shaped rows) in parentheses.
fn print_table_block(
    title: &str,
    gpu_counts: &[usize],
    rows: &[(String, &[f64])],
    baseline: Option<&[(String, &[f64])]>,
) {
    println!("\nApplication: {title}");
    print!("{:<22}", "dataset");
    for g in gpu_counts {
        print!(
            "{:>18}",
            format!("{g} GPU{}", if *g > 1 { "s" } else { "" })
        );
    }
    println!();
    for (i, (name, ms)) in rows.iter().enumerate() {
        print!("{name:<22}");
        for (j, v) in ms.iter().enumerate() {
            let cell = match baseline {
                Some(base) => format!("{:.5} (x{:.2})", round_sig(*v), base[i].1[j] / v),
                None => format!("{:.5} (x1)", round_sig(*v)),
            };
            print!("{cell:>18}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &[&str]) -> BenchArgs {
        let flags: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
        BenchArgs::parse_from(&flags, 1).unwrap()
    }

    #[test]
    fn only_the_reference_run_accepts_artifact_flags() {
        for e in &EXPERIMENTS {
            assert_eq!(
                e.check_flags(&args(&["--quick", "--threads", "3"])),
                Ok(()),
                "{}",
                e.name
            );
            for flag in ["--trace", "--metrics"] {
                let got = e.check_flags(&args(&[flag, "/tmp/x.json"]));
                if e.name == REFERENCE {
                    assert_eq!(got, Ok(()));
                } else {
                    assert!(got.unwrap_err().contains(flag), "{} {flag}", e.name);
                }
            }
        }
    }

    #[test]
    fn cells_are_series_major_and_cover_the_grid() {
        let spec = grid("table5_ib");
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 6 * 2 * 8);
        assert_eq!(
            cells[0],
            Cell {
                app: App::Bfs,
                dataset: 0,
                framework: 0,
                gpus: 1
            }
        );
        assert_eq!(
            frameworks(spec.system, App::Bfs)[cells[8].framework].0,
            "Atos"
        );
        assert!(cells.chunks(8).all(|s| s.iter().map(|c| c.gpus).eq(1..=8)));
        assert_eq!(grid("fig5_scaling_nvlink").cells().len(), 2 * 4 * 4 * 4);
    }
}
