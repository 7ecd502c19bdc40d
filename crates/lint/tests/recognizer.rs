#![forbid(unsafe_code)]
//! The per-file token rules and the parser's facts come from one recognizer
//! (`rules::recognize`). Every recognized form inside a function must be both
//! a token finding and a parser fact, at the same position and of the
//! matching kind; a form outside any function (where the parser never
//! looks) must still be a token finding.

use xtsim_lint::config::Config;
use xtsim_lint::parser::{parse_file, FactKind};
use xtsim_lint::rules::{rule_id, FileContext};
use xtsim_lint::scan_source;

/// `hot.rs` is a hot path, so `.unwrap()`/`.expect()` report too.
const CONFIG: &str = "[lint]\nhot_paths = [\"hot.rs\"]\n";

/// Line 2 sits outside any function; lines 4–15 hold every recognized form.
const SRC: &str = r#"
static START: LazyLock<Instant> = LazyLock::new(Instant::now);

fn every_form(o: Option<u32>) -> u32 {
    let _ = std::time::Instant::now();
    let _ = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    let _ = Stopwatch::start();
    let _ = metrics.start_timer();
    hist.observe_since(t0);
    let _ = rand::thread_rng();
    let _ = StdRng::from_entropy();
    let _ = OsRng;
    let _ = StdRng::from_os_rng();
    o.unwrap() + o.expect("set")
}
"#;

#[test]
fn token_findings_and_parser_facts_agree() {
    let cfg = Config::parse(CONFIG).expect("config parses");
    let (findings, suppressed, _) = scan_source("hot.rs", SRC, &cfg);
    assert!(suppressed.is_empty(), "{suppressed:#?}");

    // The static initializer is outside every `fn` body: flagged by the
    // token rule, invisible to the parser.
    let (outside, inside): (Vec<_>, Vec<_>) = findings.iter().partition(|f| f.line == 2);
    assert_eq!(outside.len(), 1, "{outside:#?}");
    assert_eq!(outside[0].rule, rule_id::WALLCLOCK_IN_SIM);
    assert!(outside[0].snippet.contains("LazyLock::new(Instant::now)"));

    let by_rule = |rule: &str| match rule {
        rule_id::WALLCLOCK_IN_SIM => FactKind::Wallclock,
        rule_id::AMBIENT_RNG => FactKind::Rng,
        rule_id::PANIC_IN_HOT_PATH => FactKind::Panic,
        other => panic!("unexpected rule {other}"),
    };
    let reported: Vec<(FactKind, u32, u32)> =
        inside.iter().map(|f| (by_rule(f.rule), f.line, f.col)).collect();

    let ctx = FileContext::new("hot.rs", SRC, &cfg);
    let fns = parse_file(&ctx);
    assert_eq!(fns.len(), 1);
    let facts: Vec<(FactKind, u32, u32)> =
        fns[0].facts.iter().map(|f| (f.kind, f.line, f.col)).collect();

    assert_eq!(reported, facts);
    let count = |k: FactKind| facts.iter().filter(|f| f.0 == k).count();
    assert_eq!(count(FactKind::Wallclock), 6, "{facts:?}");
    assert_eq!(count(FactKind::Rng), 4, "{facts:?}");
    assert_eq!(count(FactKind::Panic), 2, "{facts:?}");
}
