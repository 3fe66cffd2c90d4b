//! Line-based experiment manifests: the recorded tables of EXPERIMENTS.md
//! as executable files under `experiments/`, run by the `experiments`
//! binary.
//!
//! A manifest is a sequence of tables. Each `table` line opens one; the
//! lines after it, up to the next `table`, describe it, and the lines
//! before the first `table` apply to every table:
//!
//! ```text
//! # comment
//! table ID TITLE…          open a table
//! spec TEMPLATE            RunSpec with {name} placeholders
//! master SEED              master seed of every cell (decimal or 0x-hex)
//! reps N                   repetitions per cell
//! set NAME VALUE           a constant placeholder value
//! vary NAME V1 V2 …        one table axis
//! cell NAME=VALUE …        one explicit cell; adjacent cell lines form one axis
//! column METRIC AGG        an output column (METRIC from METRICS)
//! fit PARAM AXIS METRIC    least squares of METRIC's mean against PARAM (one per table)
//! assert SUBJECT OP VALUE  a verdict line; a failing assert fails the run
//! csv FILE                 CSV name under the results directory
//! quick LINE | full LINE   LINE applies at that effort only
//! ```
//!
//! The rows are the cartesian product of the axes, first axis outermost.
//! A placeholder is filled from the row, then from the `set` values (the
//! last one wins); a value that parses as a number is substituted in its
//! shortest round-trip form (f64 `Display`), so the spec parses back to
//! the same bits. `{bias}` is `theorem_bias(n, k)` and `{bias:FLOOR}` is
//! `theorem_bias(n, k).max(FLOOR)`, usable in the template and as a
//! value. A `key={name}` pair whose value fills empty is dropped, so one
//! template covers cells with and without, say, a scenario. A cell may
//! bind `master` to override the table's seed.
//!
//! Every cell is resolved once through [`Registry::resolve`] and runs its
//! repetitions on the [`crate::run_spec_many`] seed stream, so a cell's
//! reports equal `run_spec_many(spec, master, reps)` report for report.
//!
//! AGG is `mean`, `sd`, `min` or `max` (over the repetitions where the
//! metric is defined; `-` if none), `count` (repetitions where it is
//! defined), `wins` (repetitions where it is positive) or `ci95` (the 95%
//! Wilson interval of `wins`). The fit AXIS is `linear`, `log` or
//! `loglog`; if a cell has no mean of the fitted metric, the fit line
//! shows `-`. An assert SUBJECT is `slope`, `|slope|` or `r2` of the fit,
//! or `NAME=VALUE… METRIC AGG` for the one row the selectors match; OP is
//! `<`, `<=`, `>`, `>=` or `==`. An assert whose subject shows `-` fails.

use crate::{run_many, theorem_bias};
use plurality_api::{ClusterTelemetry, Registry, Report, Resolved, RunSpec, Telemetry};
use plurality_core::analysis::{collision_lower_bound, endgame_generations};
use plurality_core::cluster::{phase_spread, ClusterPhase};
use plurality_stats::{fit, fmt_f64, success_rate, Axis, OnlineStats, Table};

/// A metric name and its value in one report, where the report defines it.
pub type Metric = (&'static str, fn(&Report) -> Option<f64>);

fn cluster(r: &Report) -> Option<&ClusterTelemetry> {
    match &r.telemetry {
        Telemetry::Cluster(t) => Some(t),
        _ => None,
    }
}

/// The generation-bump spreads of one cluster run, in time units: for
/// each generation ≥ 2, the first to the last cluster entering
/// `TwoChoices` (generation 1 starts with the consensus switch itself).
fn bump_spreads(r: &Report) -> Option<OnlineStats> {
    let t = cluster(r)?;
    let mut spreads = OnlineStats::new();
    for (g, first, last) in phase_spread(&t.phase_log, ClusterPhase::TwoChoices) {
        if g >= 2 {
            spreads.push((last - first) / t.steps_per_unit);
        }
    }
    (spreads.count() > 0).then_some(spreads)
}

/// The generations of one cluster run whose first cluster enters
/// propagation before the last one falls asleep (Proposition 31(c)).
fn early_propagations(r: &Report) -> Option<f64> {
    let t = cluster(r)?;
    let units = |x: f64| x / t.steps_per_unit;
    let propagation = phase_spread(&t.phase_log, ClusterPhase::Propagation);
    let sleeping = phase_spread(&t.phase_log, ClusterPhase::Sleeping);
    let early = sleeping.iter().filter(|&&(g, _, last_sleep)| {
        (propagation.iter()).any(|&(p, first, _)| p == g && units(first) < units(last_sleep) - 1e-9)
    });
    Some(early.count() as f64)
}

/// The ratios `α_i / α²_{i−1}` of consecutive generation births whose
/// squared parent bias is finite and at most 10⁴ (Lemma 4; beyond that
/// the runner-up colour is nearly extinct and the ratio is noise).
fn square_ratios(r: &Report) -> Option<OnlineStats> {
    let mut ratios = OnlineStats::new();
    for w in r.outcome.generations.windows(2) {
        let squared = w[0].bias * w[0].bias;
        if squared.is_finite() && squared <= 1e4 {
            ratios.push(w[1].bias / squared);
        }
    }
    (ratios.count() > 0).then_some(ratios)
}

/// The generations from the first birth with bias above `k` to the first
/// monochromatic one (Lemma 11).
fn endgame_gap(r: &Report) -> Option<f64> {
    let births = &r.outcome.generations;
    let above = births.iter().find(|b| b.bias > f64::from(r.outcome.k))?;
    let mono = births.iter().find(|b| !b.bias.is_finite())?;
    Some(f64::from(mono.generation) - f64::from(above.generation))
}

/// The leader's two-choices windows `(propagation − allowed)/C1`, in time
/// units, over the generations whose propagation opened (Proposition 16).
fn windows(r: &Report) -> Option<OnlineStats> {
    let c1 = r.steps_per_unit()?;
    let mut windows = OnlineStats::new();
    for p in r.phases()? {
        if let Some(propagation) = p.propagation_at {
            windows.push((propagation - p.allowed_at) / c1);
        }
    }
    (windows.count() > 0).then_some(windows)
}

/// Every metric a manifest can name. Times are in the engine's clock
/// (rounds or steps); `c1` is the time-unit length `C1` in steps the run
/// used; `eps_units`, `switch_*` and `bump_spread*` are in units of `C1`;
/// `bump_spread` and `bump_spread_max` are the mean and the maximum of a
/// run's generation-bump broadcast spreads (Theorem 28);
/// `phase_spread_max` is the widest first-to-last spread of a cluster
/// run over every generation and phase (Figure 2's `t̂₀…t̂₅` marks), and `prop31c_violations` counts
/// its generations whose propagation starts before the last cluster
/// sleeps (Proposition 31); `square_ratio_*` range over a run's bias
/// ratios `α_i/α²_{i−1}` (Lemma 4); `collision_margin_min` is the least
/// parent collision probability minus Remark 2's bound for the parent's
/// bias; `endgame_gap` counts the generations from the first bias above
/// `k` to the first monochromatic one, and `endgame_excess` is that gap
/// minus Lemma 11's `log₂ log_k n`; `window_*` range over the leader's
/// two-choices windows in units (Proposition 16); `two_choices_rounds` is
/// a sync run's number of two-choices rounds; `tail_ln_n` is
/// `(full − ε) / ln n`; `preserved`, `eps_reached` and `full_reached` are
/// 0/1 indicators.
pub const METRICS: &[Metric] = &[
    ("eps_time", |r| r.outcome.epsilon_time),
    ("full_time", |r| r.outcome.consensus_time),
    ("duration", |r| Some(r.outcome.duration)),
    ("rounds", |r| Some(r.rounds()? as f64)),
    ("c1", Report::steps_per_unit),
    ("eps_units", |r| {
        Some(r.outcome.epsilon_time? / r.steps_per_unit()?)
    }),
    ("tail_ln_n", |r| {
        let o = &r.outcome;
        Some((o.consensus_time? - o.epsilon_time?) / (o.n as f64).ln())
    }),
    ("generations", |r| Some(r.phases()?.len() as f64)),
    ("interactions", |r| Some(r.interactions()? as f64)),
    ("preserved", |r| {
        Some(u8::from(r.outcome.plurality_preserved()).into())
    }),
    ("eps_reached", |r| {
        Some(u8::from(r.outcome.epsilon_time.is_some()).into())
    }),
    ("full_reached", |r| {
        Some(u8::from(r.outcome.consensus_time.is_some()).into())
    }),
    ("clusters", |r| Some(cluster(r)?.cluster_count as f64)),
    ("participating", |r| {
        Some(cluster(r)?.participating_clusters as f64)
    }),
    ("coverage", |r| Some(cluster(r)?.clustered_fraction)),
    ("participating_fraction", |r| {
        Some(cluster(r)?.participating_fraction)
    }),
    ("switch_first", |r| {
        let t = cluster(r)?;
        Some(t.first_switch_time? / t.steps_per_unit)
    }),
    ("switch_spread", |r| {
        let t = cluster(r)?;
        Some((t.last_switch_time? - t.first_switch_time?) / t.steps_per_unit)
    }),
    ("bump_spread", |r| Some(bump_spreads(r)?.mean())),
    ("bump_spread_max", |r| Some(bump_spreads(r)?.max())),
    ("phase_spread_max", |r| {
        let t = cluster(r)?;
        let phases = [
            ClusterPhase::TwoChoices,
            ClusterPhase::Sleeping,
            ClusterPhase::Propagation,
        ];
        let marks = phases.map(|phase| phase_spread(&t.phase_log, phase));
        let spreads = marks.iter().flatten().map(|(_, first, last)| last - first);
        Some(spreads.reduce(f64::max)? / t.steps_per_unit)
    }),
    ("prop31c_violations", early_propagations),
    ("square_ratio_min", |r| Some(square_ratios(r)?.min())),
    ("square_ratio_max", |r| Some(square_ratios(r)?.max())),
    ("collision_margin_min", |r| {
        let births = r.outcome.generations.iter();
        let finite = births.filter(|b| b.parent_bias.is_finite());
        let margins =
            finite.map(|b| b.parent_collision - collision_lower_bound(b.parent_bias, r.outcome.k));
        margins.reduce(f64::min)
    }),
    ("endgame_gap", endgame_gap),
    ("endgame_excess", |r| {
        Some(endgame_gap(r)? - endgame_generations(r.outcome.k, r.outcome.n))
    }),
    ("window_min", |r| Some(windows(r)?.min())),
    ("window_mean", |r| Some(windows(r)?.mean())),
    ("window_max", |r| Some(windows(r)?.max())),
    ("two_choices_rounds", |r| match &r.telemetry {
        Telemetry::Sync(t) => Some(t.two_choices_rounds.len() as f64),
        _ => None,
    }),
];

const AGGS: [&str; 7] = ["mean", "sd", "min", "max", "count", "wins", "ci95"];

const AXES: &[(&str, Axis)] = &[
    ("linear", Axis::Linear),
    ("log", Axis::Log),
    ("loglog", Axis::LogLog),
];

/// Looks `name` up in a name table, or names the line and the choices.
fn find<T>(
    line: usize,
    what: &str,
    table: &'static [(&'static str, T)],
    name: &str,
) -> Result<&'static (&'static str, T), String> {
    table.iter().find(|(n, _)| *n == name).ok_or_else(|| {
        let known: Vec<_> = table.iter().map(|(n, _)| *n).collect();
        format!(
            "line {line}: unknown {what} `{name}` (known: {})",
            known.join(", ")
        )
    })
}

/// A metric and an aggregate name.
type Column = (&'static Metric, &'static str);

fn column(line: usize, metric: &str, agg: &str) -> Result<Column, String> {
    let known = AGGS.join(", ");
    let unknown = || format!("line {line}: unknown aggregate `{agg}` (known: {known})");
    let agg = AGGS.into_iter().find(|a| *a == agg).ok_or_else(unknown)?;
    Ok((find(line, "metric", METRICS, metric)?, agg))
}

/// One metric over one cell's repetitions.
struct Summary {
    stats: OnlineStats,
    wins: u64,
    reps: usize,
}

impl Summary {
    fn new(metric: &Metric, reports: &[Report]) -> Self {
        let mut stats = OnlineStats::new();
        let mut wins = 0;
        for x in reports.iter().filter_map(metric.1) {
            stats.push(x);
            wins += u64::from(x > 0.0);
        }
        let reps = reports.len();
        Self { stats, wins, reps }
    }

    fn number(&self, agg: &str) -> Option<f64> {
        let s = &self.stats;
        match agg {
            "count" => Some(s.count() as f64),
            "wins" => Some(self.wins as f64),
            "ci95" => None,
            _ if s.count() == 0 => None,
            "mean" => Some(s.mean()),
            "sd" => Some(s.sample_sd()),
            "min" => Some(s.min()),
            _ => Some(s.max()),
        }
    }

    fn text(&self, agg: &str) -> String {
        match agg {
            "count" => format!("{}/{}", self.stats.count(), self.reps),
            "wins" => format!("{}/{}", self.wins, self.reps),
            "ci95" => {
                let (_, lo, hi) = success_rate(self.wins, self.reps as u64, 0.95);
                format!("[{}, {}]", fmt_f64(lo), fmt_f64(hi))
            }
            _ => self.number(agg).map_or_else(|| "-".into(), fmt_f64),
        }
    }
}

/// Placeholder names and their values.
type Bindings = Vec<(String, String)>;

/// One row of a table: its spec and its resolved run.
pub struct Cell {
    /// The filled RunSpec string.
    pub spec: String,
    /// The master seed of the cell's repetitions.
    pub master: u64,
    labels: Bindings,
    resolved: Resolved,
}

impl Cell {
    fn label(&self, name: &str) -> Option<&str> {
        lookup(&self.labels, name)
    }

    fn number(&self, name: &str) -> Option<f64> {
        self.label(name)?.parse().ok()
    }
}

#[derive(Clone, Copy)]
enum Subject {
    Slope,
    AbsSlope,
    R2,
    /// A row index and a column.
    Cell(usize, Column),
}

struct Assert {
    text: String,
    subject: Subject,
    op: &'static str,
    value: f64,
}

/// One parsed table, its cells resolved and ready to run.
pub struct TableSpec {
    /// The cells, in row order.
    pub cells: Vec<Cell>,
    /// CSV file name under the results directory, if any.
    pub csv: Option<String>,
    title: String,
    reps: usize,
    columns: Vec<Column>,
    fit: Option<(String, Axis, &'static Metric)>,
    asserts: Vec<Assert>,
}

impl TableSpec {
    /// Runs each cell's repetitions in parallel and returns the reports
    /// cell by cell; repetition `i` of a cell runs with seed
    /// `derive_seed(master, i)`.
    pub fn run(&self) -> Vec<Vec<Report>> {
        let run = |c: &Cell| run_many(c.master, self.reps, |rep| c.resolved.run_seeded(rep.seed));
        self.cells.iter().map(run).collect()
    }

    /// Aggregates the reports of [`TableSpec::run`]: the deterministic
    /// stdout text (table, fit line, assert verdicts), the table for CSV
    /// export, and whether every assert held.
    pub fn summarize(&self, reports: &[Vec<Report>]) -> (String, Table, bool) {
        let mut names: Vec<&str> = Vec::new();
        for (name, _) in self.cells.iter().flat_map(|c| &c.labels) {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
        let columns = self.columns.iter().map(|(m, a)| format!("{} {a}", m.0));
        let headers: Vec<String> = names.iter().map(|n| n.to_string()).chain(columns).collect();
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(&self.title, &headers);
        for (cell, runs) in self.cells.iter().zip(reports) {
            let label = |n: &&str| {
                cell.label(n)
                    .filter(|v| !v.is_empty())
                    .unwrap_or("-")
                    .into()
            };
            let values = self
                .columns
                .iter()
                .map(|(m, a)| Summary::new(m, runs).text(a));
            table.row(&names.iter().map(label).chain(values).collect::<Vec<_>>());
        }
        let mut text = table.render();

        let fitted = self.fit.as_ref().and_then(|(param, axis, metric)| {
            let xs: Vec<f64> = self.cells.iter().filter_map(|c| c.number(param)).collect();
            // A cell where no repetition defines the metric has no mean to
            // fit, and neither has the table.
            let ys: Option<Vec<f64>> = reports
                .iter()
                .map(|r| Summary::new(metric, r).number("mean"))
                .collect();
            let on = match axis {
                Axis::Linear => "",
                Axis::Log => "ln ",
                Axis::LogLog => "ln ln ",
            };
            let line = ys.map(|ys| fit(&xs, &ys, *axis, Axis::Linear));
            let shown = line.map_or_else(
                || "-".into(),
                |l| format!("slope {:.3}, R² {:.4}", l.slope, l.r_squared),
            );
            text += &format!("fit {} mean vs {on}{param}: {shown}\n", metric.0);
            line
        });
        let mut passed = true;
        for a in &self.asserts {
            let actual = match a.subject {
                Subject::Slope => fitted.map(|f| f.slope),
                Subject::AbsSlope => fitted.map(|f| f.slope.abs()),
                Subject::R2 => fitted.map(|f| f.r_squared),
                Subject::Cell(row, (m, agg)) => Summary::new(m, &reports[row]).number(agg),
            };
            let ok = actual.is_some_and(|x| match a.op {
                "<" => x < a.value,
                "<=" => x <= a.value,
                ">" => x > a.value,
                ">=" => x >= a.value,
                _ => x == a.value,
            });
            passed &= ok;
            let shown = actual.map_or_else(|| "-".into(), fmt_f64);
            let verdict = if ok { "ok" } else { "FAILED" };
            text += &format!("assert {}: {verdict} ({shown})\n", a.text);
        }
        text.push('\n');
        (text, table, passed)
    }
}

/// A parsed manifest: its tables in file order.
pub struct Manifest {
    /// The tables.
    pub tables: Vec<TableSpec>,
}

/// A manifest line that applies at the chosen effort: its number, the
/// number of the line opening its run of `cell` lines (0 for other
/// lines), and its words without the effort prefix.
type Line<'a> = (usize, usize, Vec<&'a str>);

impl Manifest {
    /// Parses a manifest at quick (`full == false`) or full effort,
    /// resolving every cell's spec.
    ///
    /// # Errors
    ///
    /// Returns the first problem as `line N: …`: an unknown directive,
    /// metric or aggregate, an unfilled placeholder, a spec
    /// [`Registry::resolve`] rejects, and so on.
    pub fn parse(text: &str, full: bool) -> Result<Self, String> {
        // The lines before the first `table`, then one group per table.
        let mut groups: Vec<Vec<Line>> = vec![Vec::new()];
        let mut block = 0;
        for (index, raw) in text.lines().enumerate() {
            let mut words: Vec<&str> = raw.split_whitespace().collect();
            if words.is_empty() || words[0].starts_with('#') {
                block = 0;
                continue;
            }
            let effort = matches!(words[0], "quick" | "full").then(|| words.remove(0) == "full");
            block = match words.first() {
                Some(&"cell") if block > 0 => block,
                Some(&"cell") => index + 1,
                _ => 0,
            };
            if effort.is_some_and(|f| f != full) {
                continue;
            }
            if words.first() == Some(&"table") {
                groups.push(Vec::new());
            }
            let group = groups.last_mut().expect("groups start non-empty");
            group.push((index + 1, block, words));
        }
        let shared = groups.remove(0);
        let tables = groups
            .iter()
            .map(|g| parse_table(&[&shared[..], g].concat()));
        Ok(Self {
            tables: tables.collect::<Result<_, _>>()?,
        })
    }
}

fn parse_seed(line: usize, raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.map_err(|_| format!("line {line}: `{raw}` is not a seed"))
}

fn binding(line: usize, token: &str) -> Result<(String, String), String> {
    match token.split_once('=') {
        Some((name, value)) if !name.is_empty() => Ok((name.into(), value.into())),
        _ => Err(format!("line {line}: `{token}` is not NAME=VALUE")),
    }
}

/// The value bound to `name`, the last binding winning.
fn lookup<'a>(env: &'a [(String, String)], name: &str) -> Option<&'a str> {
    let found = env.iter().rev().find(|(n, _)| n == name);
    found.map(|(_, v)| v.as_str())
}

/// A value as substituted: built-ins evaluated, numbers in shortest
/// round-trip form, anything else verbatim.
fn substitute(env: &[(String, String)], raw: &str) -> Result<String, String> {
    if let Some(name) = raw.strip_prefix('{').and_then(|r| r.strip_suffix('}')) {
        return Ok(bias(env, name)?.to_string());
    }
    Ok(raw
        .parse::<f64>()
        .map_or_else(|_| raw.into(), |x| x.to_string()))
}

/// The `{bias}` / `{bias:FLOOR}` built-in.
fn bias(env: &[(String, String)], name: &str) -> Result<f64, String> {
    let floor = match name.strip_prefix("bias") {
        Some("") => Some(f64::NEG_INFINITY),
        Some(rest) => rest.strip_prefix(':').and_then(|f| f.parse().ok()),
        None => None,
    };
    let floor =
        floor.ok_or_else(|| format!("`{{{name}}}` is not `{{bias}}` or `{{bias:FLOOR}}`"))?;
    let get = |key: &str| {
        let value = lookup(env, key).and_then(|v| v.parse::<f64>().ok());
        value.ok_or_else(|| format!("`{{{name}}}` needs a numeric `{key}` from set/vary/cell"))
    };
    Ok(theorem_bias(get("n")? as u64, get("k")? as u32).max(floor))
}

/// Fills every placeholder of the template, then drops the `key=` pairs
/// a placeholder left empty.
fn fill(env: &[(String, String)], template: &str) -> Result<String, String> {
    let mut out = String::new();
    let mut rest = template;
    while let Some((head, tail)) = rest.split_once('{') {
        let (name, tail) = tail.split_once('}').ok_or("unclosed `{` in the spec")?;
        out += head;
        out += &match lookup(env, name) {
            _ if name.starts_with("bias") => bias(env, name)?.to_string(),
            Some(raw) => substitute(env, raw)?,
            None => return Err(format!("placeholder `{{{name}}}` has no value")),
        };
        rest = tail;
    }
    out += rest;
    let Some((protocol, query)) = out.split_once('?') else {
        return Ok(out);
    };
    let kept: Vec<&str> = query.split('&').filter(|kv| !kv.ends_with('=')).collect();
    Ok(match kept[..] {
        [] => protocol.into(),
        _ => format!("{protocol}?{}", kept.join("&")),
    })
}

/// Builds one table from its lines (the shared ones first).
fn parse_table(lines: &[Line]) -> Result<TableSpec, String> {
    let (mut title, mut table_line) = (String::new(), 0);
    let (mut spec, mut master, mut reps, mut csv, mut fit) = (None, None, None, None, None);
    let mut sets: Bindings = Vec::new();
    // Each axis with the line opening its `cell` block (0 for a `vary`).
    let mut axes: Vec<(usize, Vec<Bindings>)> = Vec::new();
    let mut columns = Vec::new();
    let mut assert_lines = Vec::new();
    for (line, block, words) in lines {
        let line = *line;
        match words.as_slice() {
            ["table", rest @ ..] if !rest.is_empty() => {
                (title, table_line) = (rest.join(" "), line)
            }
            ["spec", template] => spec = Some((line, template.to_string())),
            ["master", seed] => master = Some(parse_seed(line, seed)?),
            ["reps", n] => match n.parse() {
                Ok(r) if r > 0 => reps = Some(r),
                _ => return Err(format!("line {line}: `{n}` is not a positive count")),
            },
            ["set", name, value] => sets.push((name.to_string(), value.to_string())),
            ["vary", name, values @ ..] if !values.is_empty() => {
                let point = |v: &&str| vec![(name.to_string(), v.to_string())];
                axes.push((0, values.iter().map(point).collect()));
            }
            ["cell", tokens @ ..] if !tokens.is_empty() => {
                let point = tokens.iter().map(|t| binding(line, t));
                let point = point.collect::<Result<Bindings, _>>()?;
                match axes.last_mut() {
                    Some((b, points)) if b == block => points.push(point),
                    _ => axes.push((*block, vec![point])),
                }
            }
            ["column", m, a] => columns.push(column(line, m, a)?),
            ["fit", param, axis, m] => {
                let axis = find(line, "fit axis", AXES, axis)?.1;
                let metric = find(line, "metric", METRICS, m)?;
                if let Some((first, ..)) = fit.replace((line, param.to_string(), axis, metric)) {
                    return Err(format!(
                        "line {line}: the table already has a `fit` line (line {first})"
                    ));
                }
            }
            ["assert", rest @ ..] => assert_lines.push((line, rest)),
            ["csv", name] => csv = Some(name.to_string()),
            [directive, ..] => {
                return Err(format!(
                    "line {line}: unknown or malformed `{directive}` line (directives: table, \
                     spec, master, reps, set, vary, cell, column, fit, assert, csv)"
                ))
            }
            [] => return Err(format!("line {line}: an effort prefix without a line")),
        }
    }
    let missing = |what: &str| format!("line {table_line}: the table has no `{what}` line");
    let (spec_line, template) = spec.ok_or_else(|| missing("spec"))?;
    let reps = reps.ok_or_else(|| missing("reps"))?;
    if columns.is_empty() {
        return Err(missing("column"));
    }

    let mut rows: Vec<Bindings> = vec![Vec::new()];
    for (_, points) in &axes {
        let extend = |row: &Bindings| {
            let row = row.clone();
            points
                .iter()
                .map(move |p| [row.clone(), p.clone()].concat())
        };
        rows = rows.iter().flat_map(extend).collect();
    }
    let builtins: Vec<&str> = (template.split('{').skip(1))
        .filter_map(|s| Some(s.split_once('}')?.0))
        .filter(|name| name.starts_with("bias"))
        .collect();
    let at_spec = |e: String| format!("line {spec_line}: {e}");
    let mut cells = Vec::new();
    for row in rows {
        let env = [sets.clone(), row.clone()].concat();
        let mut labels = Vec::new();
        for (name, raw) in &row {
            labels.push((name.clone(), substitute(&env, raw).map_err(at_spec)?));
        }
        for name in &builtins {
            labels.push((
                name.to_string(),
                bias(&env, name).map_err(at_spec)?.to_string(),
            ));
        }
        let spec = fill(&env, &template).map_err(at_spec)?;
        let resolved = RunSpec::parse(&spec)
            .and_then(|parsed| Registry::standard().resolve(&parsed))
            .map_err(|e| at_spec(format!("`{spec}`: {e}")))?;
        let master = match lookup(&row, "master") {
            Some(raw) => parse_seed(spec_line, raw)?,
            None => master.ok_or_else(|| missing("master"))?,
        };
        cells.push(Cell {
            spec,
            master,
            labels,
            resolved,
        });
    }
    if let Some((line, param, ..)) = &fit {
        if !cells.iter().all(|c| c.number(param).is_some()) {
            return Err(format!(
                "line {line}: fit parameter `{param}` is not numeric in every row"
            ));
        }
    }

    let mut asserts = Vec::new();
    for (line, words) in assert_lines {
        let malformed = || format!("line {line}: not `assert SUBJECT OP VALUE`");
        let [subject @ .., op, value] = words else {
            return Err(malformed());
        };
        let op = ["<", "<=", ">", ">=", "=="].into_iter().find(|o| o == op);
        let (Some(op), Ok(value)) = (op, value.parse::<f64>()) else {
            return Err(malformed());
        };
        let subject = match subject {
            ["slope"] => Subject::Slope,
            ["|slope|"] => Subject::AbsSlope,
            ["r2"] => Subject::R2,
            [selectors @ .., m, a] if !selectors.is_empty() => {
                let mut wanted = Vec::new();
                for s in selectors {
                    let (name, raw) = binding(line, s)?;
                    let value = substitute(&[], &raw).map_err(|e| format!("line {line}: {e}"))?;
                    wanted.push((name, value));
                }
                let selected = |c: &Cell| wanted.iter().all(|(n, v)| c.label(n) == Some(v));
                let rows: Vec<usize> = (0..cells.len()).filter(|&i| selected(&cells[i])).collect();
                let [row] = rows[..] else {
                    return Err(format!(
                        "line {line}: selectors match {} rows, not one",
                        rows.len()
                    ));
                };
                Subject::Cell(row, column(line, m, a)?)
            }
            _ => return Err(malformed()),
        };
        if fit.is_none() && !matches!(subject, Subject::Cell(..)) {
            return Err(format!("line {line}: the assert needs a `fit` line"));
        }
        let text = words.join(" ");
        asserts.push(Assert {
            text,
            subject,
            op,
            value,
        });
    }

    // The constants: every `set` name no row binds, with its last value.
    let mut constants = String::new();
    for (name, _) in &sets {
        let shown = format!(" · {name} = {}", lookup(&sets, name).unwrap_or_default());
        if cells.iter().all(|c| c.label(name).is_none()) && !constants.contains(&shown) {
            constants += &shown;
        }
    }
    let master = master.map_or("per cell".into(), |m| format!("{m:#x}"));
    Ok(TableSpec {
        cells,
        csv,
        title: format!("{title} · {template}{constants} · master {master} · {reps} reps"),
        reps,
        columns,
        fit: fit.map(|(_, param, axis, metric)| (param, axis, metric)),
        asserts,
    })
}
