//! The scenario DSL parser.
//!
//! ## Grammar
//!
//! ```text
//! scenario   := ""                     (the empty scenario)
//!             | event (";" event)*
//! event      := action "@" time-spec
//!             | run-long               (no time: holds for the whole run)
//! time-spec  := TIME                   (instantaneous)
//!             | TIME ".." TIME         (window [from, until))
//! action     := "crash:"     FRACTION
//!             | "recover:"   FRACTION
//!             | "join:"      FRACTION
//!             | "corrupt:"   FRACTION [":oblivious" | ":adaptive"]
//!             | "burst-loss:" PROB                (window required)
//!             | "latency:"   FACTOR               (window optional)
//!             | "rewire:"    TOPOLOGY-SPEC
//! run-long   := "signal-loss:" PROB               (at most once)
//!             | "stragglers:" FRACTION [":" RATE] (at most once)
//! ```
//!
//! `FRACTION` and `PROB` are floats in `[0, 1]`; `FACTOR` and `RATE`
//! are positive finite floats (`RATE` defaults to 0.1); `TIME` is a
//! finite float ≥ 0 in the engine's native clock; `TOPOLOGY-SPEC` is
//! the topology grammar of [`Topology::parse_spec`] (`complete | ring |
//! torus | er:P | regular:D | pa:M`). `corrupt` defaults to the
//! oblivious adversary. The run-long actions are read only by the
//! asynchronous engines (single-leader and multi-leader).
//!
//! Examples:
//!
//! ```text
//! crash:0.2@5
//! crash:0.2@5;burst-loss:0.5@8..12;rewire:er:0.01@20
//! corrupt:0.1:adaptive@5;join:0.1@9;latency:4@10..20
//! signal-loss:0.3;stragglers:0.2:0.1
//! ```

use crate::script::{Action, AdversaryMode, Scenario, ScenarioEvent, WindowRule};
use plurality_topology::Topology;
use std::fmt;

/// Why a scenario spec was rejected. Carries the 1-based event index and
/// a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioParseError {
    event: usize,
    message: String,
}

impl ScenarioParseError {
    fn new(event: usize, message: impl Into<String>) -> Self {
        Self {
            event,
            message: message.into(),
        }
    }
}

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario event #{}: {}", self.event, self.message)
    }
}

impl std::error::Error for ScenarioParseError {}

fn parse_number(idx: usize, what: &str, s: &str) -> Result<f64, ScenarioParseError> {
    s.parse::<f64>()
        .map_err(|_| ScenarioParseError::new(idx, format!("{what}: `{s}` is not a number")))
}

fn parse_event(idx: usize, raw: &str) -> Result<ScenarioEvent, ScenarioParseError> {
    let (action_str, time_str) = match raw.split_once('@') {
        Some((action, time)) => (action, Some(time)),
        None => (raw, None),
    };
    let action = parse_action(idx, action_str)?;
    let (at, until) = match (action.window_rule(), time_str) {
        (WindowRule::RunLong, Some(_)) => {
            return Err(ScenarioParseError::new(
                idx,
                format!(
                    "`{}` holds for the whole run and takes no `@TIME` (write `{action}`)",
                    action.keyword()
                ),
            ))
        }
        (WindowRule::RunLong, None) => (0.0, None),
        (_, None) => {
            return Err(ScenarioParseError::new(
                idx,
                format!("`{raw}` has no `@TIME` part"),
            ))
        }
        (_, Some(time)) => match time.split_once("..") {
            Some((from, until)) => (
                parse_number(idx, "window start", from)?,
                Some(parse_number(idx, "window end", until)?),
            ),
            None => (parse_number(idx, "event time", time)?, None),
        },
    };
    Ok(ScenarioEvent { at, until, action })
}

fn parse_action(idx: usize, action_str: &str) -> Result<Action, ScenarioParseError> {
    let (keyword, payload) = action_str
        .split_once(':')
        .ok_or_else(|| ScenarioParseError::new(idx, format!("`{action_str}` has no parameter")))?;
    let action = match keyword {
        "crash" => Action::Crash {
            fraction: parse_number(idx, "crash fraction", payload)?,
        },
        "recover" => Action::Recover {
            fraction: parse_number(idx, "recover fraction", payload)?,
        },
        "join" => Action::Join {
            fraction: parse_number(idx, "join fraction", payload)?,
        },
        "corrupt" => {
            let (frac_str, mode) = match payload.split_once(':') {
                None => (payload, AdversaryMode::Oblivious),
                Some((f, "oblivious")) => (f, AdversaryMode::Oblivious),
                Some((f, "adaptive")) => (f, AdversaryMode::Adaptive),
                Some((_, other)) => {
                    return Err(ScenarioParseError::new(
                        idx,
                        format!("unknown adversary mode `{other}` (oblivious or adaptive)"),
                    ))
                }
            };
            Action::Corrupt {
                fraction: parse_number(idx, "corruption budget", frac_str)?,
                mode,
            }
        }
        "burst-loss" => Action::BurstLoss {
            p: parse_number(idx, "burst-loss probability", payload)?,
        },
        "latency" => Action::LatencyScale {
            factor: parse_number(idx, "latency factor", payload)?,
        },
        "rewire" => Action::Rewire {
            topology: Topology::parse_spec(payload)
                .map_err(|e| ScenarioParseError::new(idx, e.message().to_string()))?,
        },
        "signal-loss" => Action::SignalLoss {
            p: parse_number(idx, "signal-loss probability", payload)?,
        },
        "stragglers" => {
            let (frac_str, rate) = match payload.split_once(':') {
                None => (payload, 0.1),
                Some((f, r)) => (f, parse_number(idx, "straggler rate", r)?),
            };
            Action::Stragglers {
                fraction: parse_number(idx, "straggler fraction", frac_str)?,
                rate,
            }
        }
        other => {
            return Err(ScenarioParseError::new(
                idx,
                format!(
                    "unknown action `{other}` (expected crash, recover, join, corrupt, \
                     burst-loss, latency, rewire, signal-loss, or stragglers)"
                ),
            ))
        }
    };
    Ok(action)
}

/// Parses a full scenario spec (the body of [`Scenario::parse`]).
pub(crate) fn parse(spec: &str) -> Result<Scenario, ScenarioParseError> {
    let trimmed = spec.trim();
    if trimmed.is_empty() {
        return Ok(Scenario::new());
    }
    let mut scenario = Scenario::new();
    for (i, raw) in trimmed.split(';').enumerate() {
        let idx = i + 1;
        let raw = raw.trim();
        if raw.is_empty() {
            return Err(ScenarioParseError::new(
                idx,
                "empty event (stray `;`?)".to_string(),
            ));
        }
        scenario = scenario
            .try_push(parse_event(idx, raw)?)
            .map_err(|e| ScenarioParseError::new(idx, e.message().to_string()))?;
    }
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example() {
        let s = Scenario::parse("crash:0.2@5;burst-loss:0.5@8..12;rewire:er:0.01@20").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.events()[0].action, Action::Crash { fraction: 0.2 });
        assert_eq!(s.events()[1].until, Some(12.0));
        assert_eq!(
            s.events()[2].action,
            Action::Rewire {
                topology: Topology::ErdosRenyi { p: 0.01 }
            }
        );
    }

    #[test]
    fn corrupt_defaults_to_oblivious() {
        let s = Scenario::parse("corrupt:0.1@5").unwrap();
        assert_eq!(
            s.events()[0].action,
            Action::Corrupt {
                fraction: 0.1,
                mode: AdversaryMode::Oblivious
            }
        );
        let s = Scenario::parse("corrupt:0.1:adaptive@5").unwrap();
        assert_eq!(
            s.events()[0].action,
            Action::Corrupt {
                fraction: 0.1,
                mode: AdversaryMode::Adaptive
            }
        );
    }

    #[test]
    fn whitespace_is_tolerated_between_events() {
        let s = Scenario::parse(" crash:0.2@5 ; join:0.1@9 ").unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn rejections_carry_the_event_index() {
        let err = Scenario::parse("crash:0.2@5;frobnicate:1@2").unwrap_err();
        assert!(err.to_string().contains("#2"), "{err}");
        assert!(err.to_string().contains("frobnicate"), "{err}");
    }

    #[test]
    fn rejects_malformed_events() {
        for bad in [
            "crash:0.2",                                   // no time
            "crash@5",                                     // no parameter
            "crash:1.5@5",                                 // fraction out of range
            "crash:0.2@-1",                                // negative time
            "crash:0.2@nan",                               // non-finite time
            "crash:0.2@5..4",                              // inverted window
            "crash:0.2@5..9",                              // window on instantaneous action
            "burst-loss:0.5@8",                            // missing required window
            "burst-loss:2@8..12",                          // probability out of range
            "latency:0@5",                                 // non-positive factor
            "latency:inf@5",                               // non-finite factor
            "corrupt:0.1:evil@5",                          // unknown adversary mode
            "rewire:hypercube@5",                          // unknown topology
            "rewire:er:x@5",                               // bad topology parameter
            "crash:0.2@5;;join:1@9",                       // stray semicolon
            "@5",                                          // empty action
            "signal-loss:0.3@5",                           // run-long action with a time
            "stragglers:0.2@0",                            // run-long action with a time
            "signal-loss:1.5",                             // probability out of range
            "stragglers:0.2:0",                            // non-positive straggler rate
            "stragglers:2",                                // straggler fraction out of range
            "signal-loss:0.1;crash:0.2@5;signal-loss:0.2", // duplicated run-long action
        ] {
            assert!(Scenario::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn latency_accepts_both_forms() {
        assert!(Scenario::parse("latency:2@5").is_ok());
        assert!(Scenario::parse("latency:2@5..9").is_ok());
    }
}
