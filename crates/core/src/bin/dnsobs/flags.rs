//! The one flag table: every subcommand is a row, every flag a constant
//! named once. The parser, the usage text (`dnsobs` with no or a wrong
//! subcommand) and the README's CLI reference all come from [`TABLE`];
//! subcommands read their values through the same constants, so a flag
//! that is not in a row cannot be looked up by accident.
//!
//! Std-only on purpose: `tests/cli.rs` includes this file to drive every
//! row against the real binary.

use std::str::FromStr;

/// What a flag's value must parse as.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Unsigned 64-bit integer.
    U64,
    /// Unsigned machine-sized integer.
    Usize,
    /// Integer of at least 1 (capacities, counts of peers).
    Count,
    /// Finite, non-negative real (seconds, days).
    Real,
    /// Any text: addresses, paths, names.
    Text,
    /// Text that may be given more than once.
    Texts,
}

impl Kind {
    /// `Err` says what was expected instead of `value`.
    pub fn check(self, value: &str) -> Result<(), &'static str> {
        let ok = match self {
            Kind::U64 => value.parse::<u64>().is_ok(),
            Kind::Usize => value.parse::<usize>().is_ok(),
            Kind::Count => value.parse::<usize>().is_ok_and(|n| n > 0),
            Kind::Real => value
                .parse::<f64>()
                .is_ok_and(|x| x.is_finite() && x >= 0.0),
            Kind::Text | Kind::Texts => true,
        };
        match (ok, self) {
            (true, _) => Ok(()),
            (false, Kind::Count) => Err("a positive integer"),
            (false, Kind::Real) => Err("a non-negative number"),
            (false, _) => Err("a non-negative integer"),
        }
    }
}

/// One flag: its name exists in the source only here.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    pub name: &'static str,
    pub metavar: &'static str,
    pub kind: Kind,
    /// Value used when the flag is absent; set per row with [`Flag::or`].
    pub default: Option<&'static str>,
    pub required: bool,
    /// Accepted but left out of every usage text (test hooks).
    pub hidden: bool,
    pub help: &'static str,
}

impl Flag {
    /// This flag with a default, for one row.
    pub const fn or(self, default: &'static str) -> Flag {
        Flag {
            default: Some(default),
            ..self
        }
    }

    /// This flag as mandatory, for one row.
    pub const fn required(self) -> Flag {
        Flag {
            required: true,
            ..self
        }
    }

    const fn hidden(self) -> Flag {
        Flag {
            hidden: true,
            ..self
        }
    }
}

/// One line per flag: `CONST = "--name" METAVAR Kind "help";`.
macro_rules! flags {
    ($($id:ident = $name:literal $metavar:ident $kind:ident $help:literal;)*) => {$(
        pub const $id: Flag = Flag {
            name: $name,
            metavar: stringify!($metavar),
            kind: Kind::$kind,
            default: None,
            required: false,
            hidden: false,
            help: $help,
        };
    )*};
}

flags! {
    DURATION = "--duration" SECS Real "seconds of traffic to simulate";
    WINDOW = "--window" SECS Real "window length";
    SEED = "--seed" N U64 "traffic seed; the sensors of one deployment share it";
    TOPK = "--topk" N Count "capacity of the big per-dataset trackers; forwarding collectors and \
        the aggregator must agree on it for state to merge";
    OUT = "--out" DIR Text "directory for TSV windows (default ./dnsobs-data; a `collect` that \
        exports state renders TSVs only when --out is given)";
    METRICS = "--metrics" ADDR Text "Prometheus endpoint: writers serve the telemetry registry \
        there while they run, `status` scrapes it";
    TRACE_OUT = "--trace-out" FILE Text "record span events into the flight recorder and write \
        the dump at exit (the stall watchdog dumps to the same file)";
    CONNECT = "--connect" ADDR Text "address of the collector to push to, or the server to follow";
    SENSORS = "--sensors" N Count "sensors in the deployment";
    INDEX = "--index" I Usize "which 1/N slice of the traffic this sensor owns";
    LISTEN = "--listen" ADDR Text "address to accept feed connections on";
    STALL_THRESHOLD = "--stall-threshold" SECS Real "warn (and dump the flight recorder) when \
        the feed has been silent this long";
    FORWARD = "--forward" ADDR Text "push per-window sketch state up to this aggregator";
    UPSTREAM = "--upstream" N U64 "this collector's id at the aggregator";
    STATE_OUT = "--state-out" FILE Text "write the exported state records to a file, for \
        `aggregate --input`";
    STORE = "--store" DIR Text "historical window store: writers persist every sealed window (a \
        restart resumes after the last durable one), `query` reads it";
    RETAIN = "--retain" DAYS Real "expire whole store segments this far behind the frontier";
    SERVE = "--serve" ADDR Text "publish every sealed window to `subscribe` clients as \
        delta-encoded state with per-client backpressure";
    KILL_AFTER = "--kill-after-windows" N U64 "crash-recovery test hook: exit hard (code 3) once \
        the Nth window is durable, like a kill -9 at the worst moment";
    UPSTREAMS = "--upstreams" N Count "forwarding collectors to wait for";
    INPUT = "--input" FILE Texts "merge --state-out record files instead of listening";
    TOPICS = "--topics" LIST Text "comma-separated topk, features, meta, dataset=DS; `topk` \
        alone drops per-key features";
    DATASET = "--dataset" DS Text "dataset name (srvip, esld, qname, qtype, rcode, aafqdn, ...)";
    KEY = "--key" KEY Text "object to follow through time";
    FROM = "--from" SECS Real "start of the time range (default 0)";
    TO = "--to" SECS Real "end of the time range (default: the store's frontier)";
    AT = "--at" SECS Real "instant whose covering window is shown";
    N = "--n" N Usize "rows to print";
    DIR = "--dir" DIR Text "store directory";
    DAYS = "--days" N Count "days of windows to fabricate";
    KEYS = "--keys" N Count "distinct keys per dataset";
    BEFORE = "--before" SECS Real "absolute stream-time horizon";
    WINDOW_START = "--window-start" SECS Real "show only the window starting here";
}

/// Flags of every long-running writer, read by `Session::start`.
pub const SESSION: &[Flag] = &[METRICS, TRACE_OUT];
/// Where sealed windows go, read by `Sinks::from_flags`.
pub const SINKS: &[Flag] = &[OUT, STORE, RETAIN, SERVE];

/// One subcommand.
#[derive(Debug)]
pub struct Cmd {
    pub path: &'static [&'static str],
    /// Metavar of the one positional argument, when the row takes one.
    pub positional: Option<&'static str>,
    /// Flag groups: the row's own, then shared ones by reference.
    pub flags: &'static [&'static [Flag]],
    pub help: &'static str,
}

/// One row per subcommand: `[path] <POSITIONAL> [own flags] + GROUP "help";`.
macro_rules! table {
    (@positional) => { None };
    (@positional $metavar:literal) => { Some($metavar) };
    ($([$($path:literal),+] $(<$metavar:literal>)? [$($flag:expr),*] $(+ $group:ident)*
        $help:literal;)*) => {
        pub const TABLE: &[Cmd] = &[$(Cmd {
            path: &[$($path),+],
            positional: table!(@positional $($metavar)?),
            flags: &[&[$($flag),*] $(, $group)*],
            help: $help,
        }),*];
    };
}

table! {
    ["simulate"] [DURATION.or("60"), WINDOW.or("10"), SEED, TOPK.or("10000"), OUT, METRICS]
        "simulate resolver traffic, run the tracking pipeline on it in one process and write TSV \
         windows plus meta-*.tsv self-reports (the platform's own counters, paper §2.4)";
    ["sensor"] [CONNECT.required(), DURATION.or("60"), SEED, SENSORS.or("1"), INDEX.or("0")]
        "simulate traffic, keep the 1/N slice owned by --index and stream its summaries to a \
         collector (reconnects with backoff)";
    ["collect"] [LISTEN.required(), SENSORS.or("1"), WINDOW.or("10"), TOPK.or("10000"),
        STALL_THRESHOLD.or("30"), FORWARD, UPSTREAM.or("0"), STATE_OUT, KILL_AFTER.hidden()]
        + SINKS + SESSION
        "accept N sensors, merge their streams in time order and run the tracking pipeline, \
         writing TSV windows like `simulate`; with --forward, --state-out, --store or --serve it \
         exports per-window sketch state to those sinks instead (federated tier)";
    ["aggregate"] [LISTEN, UPSTREAMS.or("1"), INPUT] + SINKS + SESSION
        "merge the window-state streams of N forwarding collectors (--listen) or of state files \
         (--input) into global TSV windows whose error bound is the sum of the collectors' bounds";
    ["subscribe"] [CONNECT.required(), OUT, TOPICS]
        "follow the live sealed windows of a --serve collector or aggregator (snapshot, then \
         deltas) and write the same TSV files the server writes";
    ["query", "history"] [STORE.required(), DATASET.required(), KEY.required(), FROM, TO]
        "one key's per-window counts, in milliseconds, from footer indexes and merged sketch \
         state (raw transactions are never re-read); states the merged Space-Saving error bound";
    ["query", "renumber"] [STORE.required(), DATASET.or("aafqdn"), FROM, TO]
        "renumbering events (address changes behind a name) found in the stored windows";
    ["query", "topk"] [STORE.required(), DATASET.required(), AT.required(), N.or("10")]
        "the top keys of the stored window that covers one instant";
    ["store", "synth"] [DIR.required(), DAYS.or("92"), SEED.or("1"), KEYS.or("8"), WINDOW.or("600")]
        "fabricate months of seeded windows with a renumbering event planted per day, then \
         compact them up the hour/day/month levels";
    ["store", "info"] [DIR.required()] "print a store's manifest summary";
    ["store", "expire"] [DIR.required(), RETAIN, BEFORE]
        "drop whole segments behind a horizon, given by exactly one of --retain and --before \
         (manifest-swap commit, ledgered)";
    ["status"] [METRICS.or("127.0.0.1:9464")]
        "scrape a running --metrics endpoint and print the one-page health summary";
    ["trace"] <"DUMP.tsv"> [WINDOW_START]
        "render a flight-recorder dump (--trace-out, stall or panic dump) as per-window lineage";
    ["show"] <"FILE.tsv"> [] "pretty-print a TSV window";
    ["top"] <"FILE.tsv"> [N.or("10")] "the top rows of a TSV window by hits";
}

impl Cmd {
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == name)
    }

    fn name(&self) -> String {
        format!("dnsobs {}", self.path.join(" "))
    }

    /// `dnsobs top FILE.tsv [--n N=10]`: required parts bare, optional
    /// ones bracketed with their default, hidden ones absent.
    pub fn usage_line(&self) -> String {
        let mut line = self.name();
        if let Some(metavar) = self.positional {
            line.push_str(&format!(" {metavar}"));
        }
        for f in self.flags().filter(|f| !f.hidden) {
            let default = f.default.map(|d| format!("={d}")).unwrap_or_default();
            let more = if f.kind == Kind::Texts { " ..." } else { "" };
            let body = format!("{} {}{default}{more}", f.name, f.metavar);
            line.push_str(&if f.required {
                format!(" {body}")
            } else {
                format!(" [{body}]")
            });
        }
        line
    }
}

/// The usage text of `rows`: a line and a sentence per subcommand, then
/// every flag they take, once.
pub fn usage<'a>(rows: impl Iterator<Item = &'a Cmd> + Clone) -> String {
    let mut text = String::from("usage:\n");
    for cmd in rows.clone() {
        text.push_str(&format!("  {}\n      {}\n", cmd.usage_line(), cmd.help));
    }
    text.push_str("\nflags:\n");
    let mut seen = Vec::new();
    for f in rows.flat_map(Cmd::flags).filter(|f| !f.hidden) {
        if !seen.contains(&f.name) {
            seen.push(f.name);
            let head = format!("{} {}", f.name, f.metavar);
            text.push_str(&format!("  {head:<24} {}\n", f.help));
        }
    }
    text
}

/// A command line checked against its row: every value present has
/// already parsed as its flag's kind, defaults are filled in, required
/// parts are there.
#[derive(Debug)]
pub struct Parsed {
    pub cmd: &'static Cmd,
    values: Vec<(&'static str, String)>,
    positional: Option<String>,
}

/// Resolve the subcommand and walk the rest of `args` against its row.
/// `Err` is the text for stderr (exit 2): the usage when no row matches,
/// else one line naming the offending flag.
pub fn parse(args: &[String]) -> Result<Parsed, String> {
    let family = TABLE
        .iter()
        .filter(|c| args.first().is_some_and(|a| c.path[0] == a));
    if family.clone().next().is_none() {
        return Err(usage(TABLE.iter()));
    }
    let on_path =
        |c: &&Cmd| args.len() >= c.path.len() && c.path.iter().zip(args).all(|(p, a)| p == a);
    let Some(cmd) = family.clone().find(on_path) else {
        return Err(usage(family));
    };
    let fail = |what: String| Err(format!("{}: {what}", cmd.name()));

    let mut values: Vec<(&'static str, String)> = Vec::new();
    let mut positional = None;
    let mut rest = args[cmd.path.len()..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if cmd.positional.is_none() || positional.is_some() {
                return fail(format!("unexpected argument {arg:?}"));
            }
            positional = Some(arg.clone());
            continue;
        }
        let Some(flag) = cmd.flag(arg) else {
            return fail(format!("unknown flag {arg}"));
        };
        let Some(value) = rest.next() else {
            return fail(format!("{arg} needs a value ({})", flag.metavar));
        };
        if let Err(expected) = flag.kind.check(value) {
            return fail(format!("{arg} {value:?}: expected {expected}"));
        }
        if flag.kind != Kind::Texts && values.iter().any(|(name, _)| *name == flag.name) {
            return fail(format!("{arg} given more than once"));
        }
        values.push((flag.name, value.clone()));
    }
    if let (Some(metavar), None) = (cmd.positional, &positional) {
        return fail(format!("{metavar} is required"));
    }
    for f in cmd.flags() {
        if values.iter().any(|(name, _)| *name == f.name) {
            continue;
        }
        match f.default {
            Some(d) => values.push((f.name, d.to_string())),
            None if f.required => return fail(format!("{} {} is required", f.name, f.metavar)),
            None => {}
        }
    }
    Ok(Parsed {
        cmd,
        values,
        positional,
    })
}

impl Parsed {
    /// The flag's value (given or the row's default), `None` when absent
    /// or not part of this row.
    pub fn opt<T: FromStr>(&self, flag: &Flag) -> Option<T> {
        let (_, value) = self.values.iter().find(|(name, _)| *name == flag.name)?;
        // The parser checked the value against the flag's kind.
        value.parse().ok()
    }

    /// The value of a flag the row marks required or gives a default.
    pub fn req<T: FromStr>(&self, flag: &Flag) -> T {
        self.opt(flag).unwrap_or_else(|| {
            panic!(
                "flag table: {} has no value in `{}`",
                flag.name,
                self.cmd.name()
            )
        })
    }

    /// Every value of a repeatable flag, in order.
    pub fn all(&self, flag: &Flag) -> Vec<&str> {
        let given = self.values.iter().filter(|(name, _)| *name == flag.name);
        given.map(|(_, value)| value.as_str()).collect()
    }

    /// The positional argument of a row that declares one.
    pub fn positional(&self) -> &str {
        self.positional
            .as_deref()
            .expect("the parser requires a declared positional")
    }
}
