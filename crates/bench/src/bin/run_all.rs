//! Runs every experiment of the evaluation in sequence, writing all
//! figure JSONs into `results/`. Scales are each experiment's default
//! unless `CURE_SCALE` is set (then it applies to all).
use cure_bench::experiments;

/// One runnable experiment: a label and a closure producing its figures.
type Run = (&'static str, Box<dyn Fn() -> cure_core::Result<Vec<cure_bench::FigureResult>>>);

fn main() {
    let overridden = std::env::var("CURE_SCALE").is_ok();
    let scale = move |d: u64| if overridden { cure_bench::scale_from_env(d) } else { d };
    let runs: Vec<Run> = vec![
        ("table1", Box::new(move || experiments::table1::run(scale(1)))),
        ("fig14-16", Box::new(move || experiments::real::run(scale(100)))),
        ("fig17", Box::new(move || experiments::cache::run(scale(100)))),
        ("fig18", Box::new(move || experiments::pool::run(scale(100)))),
        ("fig19-20", Box::new(move || experiments::dims::run(scale(25)))),
        ("fig21-22", Box::new(move || experiments::skew::run(scale(25)))),
        ("fig23-24", Box::new(move || experiments::apb::run(scale(1000)))),
        ("fig25", Box::new(move || experiments::qrt::run(scale(1000)))),
        ("fig26-28", Box::new(move || experiments::flat_hier::run(scale(500)))),
        ("iceberg", Box::new(move || experiments::iceberg::run(scale(1000)))),
        ("ablations", Box::new(move || experiments::ablations::run(scale(1000)))),
        ("build_scaling", Box::new(move || experiments::build_scaling::run(scale(1000)))),
        ("recovery", Box::new(move || experiments::recovery::run(scale(4)))),
    ];
    let mut failed = 0;
    for (name, run) in runs {
        println!("\n================ {name} ================");
        let start = std::time::Instant::now();
        match run() {
            Ok(figs) => println!(
                "[{name}: {} figure(s) in {:.1}s]",
                figs.len(),
                start.elapsed().as_secs_f64()
            ),
            Err(e) => {
                eprintln!("[{name} FAILED: {e}]");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
