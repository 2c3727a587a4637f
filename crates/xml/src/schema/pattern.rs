//! Regex-lite engine for `xs:pattern` facets.
//!
//! A self-contained Thompson-NFA regular expression engine over bytes,
//! supporting the constructs that appear in real-world XSD patterns:
//!
//! * literals, `.`, escapes `\d \D \w \W \s \S` and escaped
//!   metacharacters;
//! * character classes `[a-z0-9_]`, negated classes `[^...]`, ranges;
//! * quantifiers `*`, `+`, `?`, `{n}`, `{n,}`, `{n,m}`;
//! * groups `(...)` and alternation `|`.
//!
//! Patterns are anchored at both ends (XSD semantics). Matching simulates
//! the NFA with a state set — linear time, no backtracking — and is traced:
//! each (input byte × active state) step is ALU work plus a load of the NFA
//! node record from the `STATIC` region, making pattern-heavy schema
//! validation genuinely CPU-intensive in the simulated workload, as the
//! paper's SV use case demands.
//!
//! The live serving path, which traces nothing, asks the same question of a
//! [`PatternDfa`]: the NFA determinised once, at schema compilation, over
//! the pattern's own byte classes ([`Pattern::to_dfa`]). The NFA stays the
//! reference — the DFA is tested against it string by string — and the
//! fallback for a pattern whose DFA would be too large.

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use aon_trace::{Addr, NullProbe, Probe, RegionSlot};

/// Region offset where compiled NFA records notionally live.
const NFA_STATIC_BASE: u32 = 0x10_0000;
/// Size of one NFA state record.
const STATE_SIZE: u32 = 12;

/// What a character-consuming NFA state matches.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Matcher {
    /// A single byte.
    Byte(u8),
    /// Any byte (`.`).
    Any,
    /// A class of byte ranges, possibly negated.
    Class { ranges: Vec<(u8, u8)>, negated: bool },
}

impl Matcher {
    fn matches(&self, b: u8) -> bool {
        match self {
            Matcher::Byte(want) => b == *want,
            Matcher::Any => true,
            Matcher::Class { ranges, negated } => {
                let inside = ranges.iter().any(|&(lo, hi)| lo <= b && b <= hi);
                inside != *negated
            }
        }
    }

    /// Work per evaluation, in abstract ALU ops.
    fn cost(&self) -> u32 {
        match self {
            Matcher::Byte(_) | Matcher::Any => 1,
            Matcher::Class { ranges, .. } => 1 + ranges.len() as u32,
        }
    }
}

/// NFA states.
#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    /// Consume a byte matching `m`, go to `next`.
    Char { m: Matcher, next: u32 },
    /// Epsilon-split to both targets.
    Split { a: u32, b: u32 },
    /// Accepting state.
    Match,
}

/// A compiled `xs:pattern`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    source: String,
    states: Vec<State>,
    start: u32,
}

impl Pattern {
    /// Compile a pattern (untraced; schema compilation is configuration
    /// work).
    pub fn compile(source: &str) -> XmlResult<Pattern> {
        Compiler::compile(source)
    }

    /// The pattern source.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Number of NFA states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Anchored match of `input`, tracing the simulation work on `p`.
    pub fn matches<P: Probe>(&self, input: &[u8], p: &mut P) -> bool {
        self.simulate(|current, next| {
            self.add_state(self.start, current, p);
            for &b in input {
                // One load for the input byte is the caller's concern (the
                // bytes usually come from a traced text read); the
                // per-state work is ours.
                next.clear();
                self.step(b, current, next, p);
                std::mem::swap(current, next);
                if current.states().is_empty() {
                    p.alu(1);
                    return false;
                }
            }
            self.accepting(current)
        })
    }

    /// Unanchored search: does the pattern match any substring of `input`?
    /// Standard multi-start NFA simulation (a fresh start state joins the
    /// frontier at every position), linear time — the deep-packet-
    /// inspection primitive (the paper's §6 future work).
    ///
    /// Returns the end offset of the first (leftmost, shortest-end) match.
    pub fn find<P: Probe>(&self, input: &[u8], p: &mut P) -> Option<usize> {
        self.simulate(|current, next| {
            self.add_state(self.start, current, p);
            if self.accepting(current) {
                return Some(0);
            }
            for (i, &b) in input.iter().enumerate() {
                next.clear();
                self.step(b, current, next, p);
                // Restart: a match may begin at the next position.
                self.add_state(self.start, next, p);
                if self.accepting(next) {
                    p.alu(1);
                    return Some(i + 1);
                }
                std::mem::swap(current, next);
            }
            None
        })
    }

    /// Run `f` with two empty frontiers sized for this NFA. Facet patterns
    /// are a few dozen states, so the frontiers live on the stack and a
    /// match allocates nothing; a larger NFA allocates once per call.
    fn simulate<R>(&self, f: impl for<'b> FnOnce(&mut Frontier<'b>, &mut Frontier<'b>) -> R) -> R {
        let n = self.states.len();
        let mut inline = ([0u32; 2 * INLINE_STATES], [false; 2 * INLINE_STATES]);
        let mut spill;
        let (lists, flags) = if n <= INLINE_STATES {
            (&mut inline.0[..2 * n], &mut inline.1[..2 * n])
        } else {
            spill = (vec![0u32; 2 * n], vec![false; 2 * n]);
            (&mut spill.0[..], &mut spill.1[..])
        };
        let (list_a, list_b) = lists.split_at_mut(n);
        let (on_a, on_b) = flags.split_at_mut(n);
        f(
            &mut Frontier { list: list_a, len: 0, on: on_a },
            &mut Frontier { list: list_b, len: 0, on: on_b },
        )
    }

    /// Advance every state of `current` over byte `b` into `next`.
    fn step<P: Probe>(&self, b: u8, current: &Frontier<'_>, next: &mut Frontier<'_>, p: &mut P) {
        for &s in current.states() {
            p.load(Addr::new(RegionSlot::STATIC, NFA_STATIC_BASE + s * STATE_SIZE), 8);
            if let State::Char { m, next: nx } = &self.states[s as usize] {
                p.alu(m.cost());
                if m.matches(b) {
                    self.add_state(*nx, next, p);
                }
            }
        }
    }

    fn accepting(&self, frontier: &Frontier<'_>) -> bool {
        frontier.states().iter().any(|&s| matches!(self.states[s as usize], State::Match))
    }

    /// Follow epsilon transitions, adding reachable states to the frontier.
    fn add_state<P: Probe>(&self, s: u32, to: &mut Frontier<'_>, p: &mut P) {
        if to.on[s as usize] {
            return;
        }
        to.on[s as usize] = true;
        p.alu(1);
        if let State::Split { a, b } = self.states[s as usize] {
            p.load(Addr::new(RegionSlot::STATIC, NFA_STATIC_BASE + s * STATE_SIZE), 8);
            self.add_state(a, to, p);
            self.add_state(b, to, p);
        } else {
            to.list[to.len] = s;
            to.len += 1;
        }
    }
}

/// Subset construction gives up past this many DFA states (`(a|b)*a(a|b){12}`
/// needs 2¹³); the pattern is then matched by the NFA.
const MAX_DFA_STATES: usize = 128;

/// A [`Pattern`] determinised for the untraced serving path: one table
/// step per input byte where [`Pattern::matches`] walks a frontier of NFA
/// states. The alphabet is the pattern's own byte equivalence classes —
/// bytes no [`Matcher`] of it tells apart share a column — so the table is
/// a few dozen entries (three classes for `[A-Z]{2}[0-9]{3,6}`), not 256
/// per state.
#[derive(Debug, Clone)]
pub(super) struct PatternDfa {
    /// Equivalence class of each byte.
    class: [u8; 256],
    classes: usize,
    /// One row per state: the next row on each class, then whether the
    /// state accepts. A state is named by the offset of its row.
    table: Vec<u32>,
    /// The row reached when no NFA state is left (it only leads to itself);
    /// `u32::MAX`, which no row has, when the pattern has none.
    dead: u32,
}

impl PatternDfa {
    /// Anchored match of `input`: the answer of [`Pattern::matches`].
    pub(super) fn matches(&self, input: &[u8]) -> bool {
        let mut row = 0u32;
        for &b in input {
            row = self.table[row as usize + usize::from(self.class[usize::from(b)])];
            if row == self.dead {
                return false;
            }
        }
        self.table[row as usize + self.classes] != 0
    }

    /// Number of byte equivalence classes.
    pub(super) fn class_count(&self) -> usize {
        self.classes
    }

    /// Number of states.
    pub(super) fn state_count(&self) -> usize {
        self.table.len() / (self.classes + 1)
    }
}

impl Pattern {
    /// The pattern's byte equivalence classes: the class of each byte, and
    /// per class which NFA states consume its bytes. Only the range bounds
    /// of the matchers can separate two neighbouring bytes, so one probe
    /// per bound decides all 256.
    fn byte_classes(&self) -> ([u8; 256], Vec<Vec<bool>>) {
        let mut cut = [false; 257];
        cut[0] = true;
        for state in &self.states {
            let State::Char { m, .. } = state else { continue };
            let ranges = match m {
                Matcher::Byte(b) => &[(*b, *b)][..],
                Matcher::Any => &[],
                Matcher::Class { ranges, .. } => ranges,
            };
            for &(lo, hi) in ranges {
                cut[usize::from(lo)] = true;
                cut[usize::from(hi) + 1] = true;
            }
        }
        let mut class = [0u8; 256];
        let mut consumers: Vec<Vec<bool>> = Vec::new();
        let mut current = 0u8;
        for b in 0..=u8::MAX {
            if cut[usize::from(b)] {
                let row: Vec<bool> = self
                    .states
                    .iter()
                    .map(|s| matches!(s, State::Char { m, .. } if m.matches(b)))
                    .collect();
                let at = consumers.iter().position(|c| *c == row).unwrap_or_else(|| {
                    consumers.push(row);
                    consumers.len() - 1
                });
                current = u8::try_from(at).expect("at most 256 intervals, so classes");
            }
            class[usize::from(b)] = current;
        }
        (class, consumers)
    }

    /// Subset construction over [`Pattern::byte_classes`]; `None` when it
    /// would pass [`MAX_DFA_STATES`].
    pub(super) fn to_dfa(&self) -> Option<PatternDfa> {
        let (class, consumers) = self.byte_classes();
        let stride = consumers.len() + 1;
        self.simulate(|reached, _| {
            // A DFA state is the sorted set of NFA states it stands for,
            // kept with whether it accepts; `sets[i]` owns row `i * stride`.
            let sorted = |reached: &Frontier<'_>| {
                let mut set = reached.states().to_vec();
                set.sort_unstable();
                (set, self.accepting(reached))
            };
            self.add_state(self.start, reached, &mut NullProbe);
            let mut sets = vec![sorted(reached)];
            let mut table: Vec<u32> = Vec::new();
            let mut done = 0;
            while done < sets.len() {
                for consumes in &consumers {
                    reached.clear();
                    for &s in &sets[done].0 {
                        if let State::Char { next, .. } = &self.states[s as usize] {
                            if consumes[s as usize] {
                                self.add_state(*next, reached, &mut NullProbe);
                            }
                        }
                    }
                    let set = sorted(reached);
                    let at = sets.iter().position(|s| *s == set).unwrap_or_else(|| {
                        sets.push(set);
                        sets.len() - 1
                    });
                    table.push((at * stride) as u32);
                }
                if sets.len() > MAX_DFA_STATES {
                    return None;
                }
                table.push(u32::from(sets[done].1));
                done += 1;
            }
            let dead = sets.iter().position(|(set, _)| set.is_empty());
            Some(PatternDfa {
                class,
                classes: stride - 1,
                table,
                dead: dead.map_or(u32::MAX, |at| (at * stride) as u32),
            })
        })
    }
}

/// NFAs of up to this many states simulate in stack buffers.
const INLINE_STATES: usize = 64;

/// One side of the NFA simulation: the active states in the order they
/// were reached — the order the traced loads follow — and a "seen" flag
/// per state, so each is entered once.
struct Frontier<'b> {
    list: &'b mut [u32],
    len: usize,
    on: &'b mut [bool],
}

impl Frontier<'_> {
    fn states(&self) -> &[u32] {
        &self.list[..self.len]
    }

    fn clear(&mut self) {
        self.len = 0;
        self.on.fill(false);
    }
}

/// Thompson-construction compiler.
struct Compiler<'s> {
    src: &'s [u8],
    pos: usize,
    states: Vec<State>,
}

/// A compiled fragment: entry state + dangling exits to patch.
#[derive(Debug, Clone)]
struct Frag {
    start: u32,
    /// (state index, which-leg) pairs pointing at a placeholder.
    outs: Vec<(u32, u8)>,
}

const PLACEHOLDER: u32 = u32::MAX;

impl<'s> Compiler<'s> {
    fn compile(source: &str) -> XmlResult<Pattern> {
        let mut c = Compiler { src: source.as_bytes(), pos: 0, states: Vec::new() };
        let frag = c.alternation()?;
        if c.pos != c.src.len() {
            return Err(c.err());
        }
        let m = c.push(State::Match);
        c.patch(&frag.outs, m);
        Ok(Pattern { source: source.to_string(), states: c.states, start: frag.start })
    }

    fn err(&self) -> XmlError {
        XmlError::at(XmlErrorKind::BadSchema, self.pos)
    }

    fn push(&mut self, s: State) -> u32 {
        self.states.push(s);
        (self.states.len() - 1) as u32
    }

    fn patch(&mut self, outs: &[(u32, u8)], target: u32) {
        for &(idx, leg) in outs {
            match &mut self.states[idx as usize] {
                State::Char { next, .. } => *next = target,
                State::Split { a, b } => {
                    if leg == 0 {
                        *a = target
                    } else {
                        *b = target
                    }
                }
                State::Match => unreachable!("match states have no exits"),
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    // alternation := concat ('|' concat)*
    fn alternation(&mut self) -> XmlResult<Frag> {
        let mut frag = self.concat()?;
        while self.peek() == Some(b'|') {
            self.pos += 1;
            let rhs = self.concat()?;
            let split = self.push(State::Split { a: frag.start, b: rhs.start });
            let mut outs = frag.outs;
            outs.extend(rhs.outs);
            frag = Frag { start: split, outs };
        }
        Ok(frag)
    }

    // concat := repeat*
    fn concat(&mut self) -> XmlResult<Frag> {
        let mut frag: Option<Frag> = None;
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            let next = self.repeat()?;
            frag = Some(match frag {
                None => next,
                Some(prev) => {
                    self.patch(&prev.outs, next.start);
                    Frag { start: prev.start, outs: next.outs }
                }
            });
        }
        // An empty branch matches the empty string: a lone split with both
        // legs dangling is overkill; synthesize an epsilon via Split.
        Ok(match frag {
            Some(f) => f,
            None => {
                let s = self.push(State::Split { a: PLACEHOLDER, b: PLACEHOLDER });
                Frag { start: s, outs: vec![(s, 0), (s, 1)] }
            }
        })
    }

    // repeat := atom ('*' | '+' | '?' | '{n}' | '{n,}' | '{n,m}')?
    fn repeat(&mut self) -> XmlResult<Frag> {
        let atom = self.atom()?;
        match self.peek() {
            Some(b'*') => {
                self.pos += 1;
                let split = self.push(State::Split { a: atom.start, b: PLACEHOLDER });
                self.patch(&atom.outs, split);
                Ok(Frag { start: split, outs: vec![(split, 1)] })
            }
            Some(b'+') => {
                self.pos += 1;
                let split = self.push(State::Split { a: atom.start, b: PLACEHOLDER });
                self.patch(&atom.outs, split);
                Ok(Frag { start: atom.start, outs: vec![(split, 1)] })
            }
            Some(b'?') => {
                self.pos += 1;
                let split = self.push(State::Split { a: atom.start, b: PLACEHOLDER });
                let mut outs = atom.outs;
                outs.push((split, 1));
                Ok(Frag { start: split, outs })
            }
            Some(b'{') => {
                let save = self.pos;
                self.pos += 1;
                let (min, max) = self.counted_bounds()?;
                let _ = save;
                self.expand_counted(atom, min, max)
            }
            _ => Ok(atom),
        }
    }

    fn counted_bounds(&mut self) -> XmlResult<(u32, Option<u32>)> {
        let min = self.number()?;
        match self.bump() {
            Some(b'}') => Ok((min, Some(min))),
            Some(b',') => {
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    Ok((min, None))
                } else {
                    let max = self.number()?;
                    if self.bump() != Some(b'}') {
                        return Err(self.err());
                    }
                    if let Some(m) = Some(max) {
                        if m < min {
                            return Err(self.err());
                        }
                    }
                    Ok((min, Some(max)))
                }
            }
            _ => Err(self.err()),
        }
    }

    fn number(&mut self) -> XmlResult<u32> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err());
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .expect("span contains only ASCII digits, checked above")
            .parse()
            .map_err(|_| self.err())
    }

    /// Expand `atom{min,max}` by chaining clones of the compiled atom:
    /// `min` mandatory copies, then either a starred copy (`{n,}`) or
    /// `max - min` skippable copies (`{n,m}`).
    fn expand_counted(&mut self, first: Frag, min: u32, max: Option<u32>) -> XmlResult<Frag> {
        const LIMIT: u32 = 256;
        if min > LIMIT || max.is_some_and(|m| m > LIMIT) {
            return Err(self.err());
        }
        if max.is_some_and(|m| m < min) {
            return Err(self.err());
        }

        let mut used_first = false;
        let mut take_copy = |c: &mut Self| -> Frag {
            if used_first {
                c.clone_frag(&first)
            } else {
                used_first = true;
                first.clone()
            }
        };
        let append = |c: &mut Self, chain: Option<Frag>, next: Frag| -> Frag {
            match chain {
                None => next,
                Some(prev) => {
                    c.patch(&prev.outs, next.start);
                    Frag { start: prev.start, outs: next.outs }
                }
            }
        };

        let mut chain: Option<Frag> = None;
        for _ in 0..min {
            let copy = take_copy(self);
            chain = Some(append(self, chain, copy));
        }

        match max {
            None => {
                // `{n,}`: append `copy*`.
                let copy = take_copy(self);
                let star = self.push(State::Split { a: copy.start, b: PLACEHOLDER });
                self.patch(&copy.outs, star);
                let star_frag = Frag { start: star, outs: vec![(star, 1)] };
                Ok(append(self, chain, star_frag))
            }
            Some(m) if m == min => Ok(match chain {
                Some(f) => f,
                // `{0,0}`: matches only the empty string.
                None => {
                    let s = self.push(State::Split { a: PLACEHOLDER, b: PLACEHOLDER });
                    Frag { start: s, outs: vec![(s, 0), (s, 1)] }
                }
            }),
            Some(m) => {
                // `{n,m}`: append m-n skippable copies. Skipping any copy
                // skips all later ones, so every skip-leg dangles to the end.
                let mut skip_outs: Vec<(u32, u8)> = Vec::new();
                let mut opt_chain: Option<Frag> = None;
                for _ in 0..(m - min) {
                    let copy = take_copy(self);
                    let split = self.push(State::Split { a: copy.start, b: PLACEHOLDER });
                    skip_outs.push((split, 1));
                    let piece = Frag { start: split, outs: copy.outs };
                    opt_chain = Some(append(self, opt_chain, piece));
                }
                let mut opt = opt_chain.expect("m > min");
                opt.outs.extend(skip_outs);
                Ok(append(self, chain, opt))
            }
        }
    }

    /// Deep-copy a fragment's reachable states.
    fn clone_frag(&mut self, frag: &Frag) -> Frag {
        use std::collections::HashMap;
        let mut map: HashMap<u32, u32> = HashMap::new();
        let mut work = vec![frag.start];
        // First pass: allocate clones.
        while let Some(s) = work.pop() {
            if map.contains_key(&s) {
                continue;
            }
            let new = self.push(self.states[s as usize].clone());
            map.insert(s, new);
            match self.states[s as usize].clone() {
                State::Char { next, .. } => {
                    if next != PLACEHOLDER {
                        work.push(next);
                    }
                }
                State::Split { a, b } => {
                    if a != PLACEHOLDER {
                        work.push(a);
                    }
                    if b != PLACEHOLDER {
                        work.push(b);
                    }
                }
                State::Match => {}
            }
        }
        // Second pass: rewrite targets.
        for (&old, &new) in &map {
            let rewritten = match self.states[old as usize].clone() {
                State::Char { m, next } => State::Char {
                    m,
                    next: if next == PLACEHOLDER { PLACEHOLDER } else { map[&next] },
                },
                State::Split { a, b } => State::Split {
                    a: if a == PLACEHOLDER { PLACEHOLDER } else { map[&a] },
                    b: if b == PLACEHOLDER { PLACEHOLDER } else { map[&b] },
                },
                State::Match => State::Match,
            };
            self.states[new as usize] = rewritten;
        }
        Frag {
            start: map[&frag.start],
            outs: frag.outs.iter().map(|&(s, leg)| (map[&s], leg)).collect(),
        }
    }

    // atom := '(' alternation ')' | class | escape | '.' | literal
    fn atom(&mut self) -> XmlResult<Frag> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let f = self.alternation()?;
                if self.bump() != Some(b')') {
                    return Err(self.err());
                }
                Ok(f)
            }
            Some(b'[') => {
                self.pos += 1;
                let m = self.class()?;
                let s = self.push(State::Char { m, next: PLACEHOLDER });
                Ok(Frag { start: s, outs: vec![(s, 0)] })
            }
            Some(b'\\') => {
                self.pos += 1;
                let m = self.escape()?;
                let s = self.push(State::Char { m, next: PLACEHOLDER });
                Ok(Frag { start: s, outs: vec![(s, 0)] })
            }
            Some(b'.') => {
                self.pos += 1;
                let s = self.push(State::Char { m: Matcher::Any, next: PLACEHOLDER });
                Ok(Frag { start: s, outs: vec![(s, 0)] })
            }
            Some(b) if !matches!(b, b'*' | b'+' | b'?' | b'{' | b'}' | b')' | b']' | b'|') => {
                self.pos += 1;
                let s = self.push(State::Char { m: Matcher::Byte(b), next: PLACEHOLDER });
                Ok(Frag { start: s, outs: vec![(s, 0)] })
            }
            _ => Err(self.err()),
        }
    }

    fn escape(&mut self) -> XmlResult<Matcher> {
        let b = self.bump().ok_or_else(|| self.err())?;
        Ok(match b {
            b'd' => Matcher::Class { ranges: vec![(b'0', b'9')], negated: false },
            b'D' => Matcher::Class { ranges: vec![(b'0', b'9')], negated: true },
            b'w' => Matcher::Class {
                ranges: vec![(b'a', b'z'), (b'A', b'Z'), (b'0', b'9'), (b'_', b'_')],
                negated: false,
            },
            b'W' => Matcher::Class {
                ranges: vec![(b'a', b'z'), (b'A', b'Z'), (b'0', b'9'), (b'_', b'_')],
                negated: true,
            },
            b's' => Matcher::Class {
                ranges: vec![(b' ', b' '), (b'\t', b'\t'), (b'\r', b'\r'), (b'\n', b'\n')],
                negated: false,
            },
            b'S' => Matcher::Class {
                ranges: vec![(b' ', b' '), (b'\t', b'\t'), (b'\r', b'\r'), (b'\n', b'\n')],
                negated: true,
            },
            b'n' => Matcher::Byte(b'\n'),
            b't' => Matcher::Byte(b'\t'),
            b'r' => Matcher::Byte(b'\r'),
            // Escaped metacharacters and anything else: literal.
            other => Matcher::Byte(other),
        })
    }

    fn class(&mut self) -> XmlResult<Matcher> {
        let negated = if self.peek() == Some(b'^') {
            self.pos += 1;
            true
        } else {
            false
        };
        let mut ranges: Vec<(u8, u8)> = Vec::new();
        loop {
            let b = self.bump().ok_or_else(|| self.err())?;
            if b == b']' {
                if ranges.is_empty() {
                    return Err(self.err());
                }
                return Ok(Matcher::Class { ranges, negated });
            }
            let lo = if b == b'\\' {
                match self.escape()? {
                    Matcher::Byte(x) => x,
                    Matcher::Class { ranges: sub, negated: false } => {
                        // \d / \w / \s inside a class: splice the ranges.
                        ranges.extend(sub);
                        continue;
                    }
                    _ => return Err(self.err()),
                }
            } else {
                b
            };
            if self.peek() == Some(b'-') && self.src.get(self.pos + 1) != Some(&b']') {
                self.pos += 1;
                let hib = self.bump().ok_or_else(|| self.err())?;
                let hi = if hib == b'\\' {
                    match self.escape()? {
                        Matcher::Byte(x) => x,
                        _ => return Err(self.err()),
                    }
                } else {
                    hib
                };
                if hi < lo {
                    return Err(self.err());
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, input: &str) -> bool {
        Pattern::compile(pat).unwrap().matches(input.as_bytes(), &mut NullProbe)
    }

    #[test]
    fn literals() {
        assert!(m("abc", "abc"));
        assert!(!m("abc", "ab"));
        assert!(!m("abc", "abcd")); // anchored
        assert!(!m("abc", "xabc"));
    }

    #[test]
    fn dot_and_classes() {
        assert!(m("a.c", "abc"));
        assert!(m("a.c", "a!c"));
        assert!(m("[a-z]+", "hello"));
        assert!(!m("[a-z]+", "Hello"));
        assert!(m("[^0-9]+", "abc"));
        assert!(!m("[^0-9]+", "a1c"));
        assert!(m("[-+]?[0-9]+", "+42"));
    }

    #[test]
    fn escapes() {
        assert!(m(r"\d+", "123"));
        assert!(!m(r"\d+", "12a"));
        assert!(m(r"\w+", "ab_1"));
        assert!(m(r"a\.b", "a.b"));
        assert!(!m(r"a\.b", "axb"));
        assert!(m(r"[\d]+-[\w]+", "12-ab"));
    }

    #[test]
    fn quantifiers() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbc"));
        assert!(m("ab+c", "abc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab?c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(!m("ab?c", "abbc"));
    }

    #[test]
    fn counted_quantifiers() {
        assert!(m("a{3}", "aaa"));
        assert!(!m("a{3}", "aa"));
        assert!(!m("a{3}", "aaaa"));
        assert!(m("a{2,4}", "aa"));
        assert!(m("a{2,4}", "aaaa"));
        assert!(!m("a{2,4}", "aaaaa"));
        assert!(m("a{2,}", "aaaaaa"));
        assert!(!m("a{2,}", "a"));
        assert!(m("[A-Z]{2}-[0-9]+", "AB-123"));
        assert!(!m("[A-Z]{2}-[0-9]+", "A-123"));
    }

    #[test]
    fn zero_min_counted() {
        assert!(m("a{0,2}b", "b"));
        assert!(m("a{0,2}b", "ab"));
        assert!(m("a{0,2}b", "aab"));
        assert!(!m("a{0,2}b", "aaab"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "cat"));
        assert!(m("cat|dog", "dog"));
        assert!(!m("cat|dog", "cow"));
        assert!(m("(ab)+", "ababab"));
        assert!(!m("(ab)+", "aba"));
        assert!(m("a(b|c)d", "abd"));
        assert!(m("a(b|c)d", "acd"));
        assert!(!m("a(b|c)d", "aed"));
    }

    #[test]
    fn empty_alternative() {
        assert!(m("a(b|)c", "abc"));
        assert!(m("a(b|)c", "ac"));
    }

    #[test]
    fn realistic_xsd_patterns() {
        // Date.
        let date = r"[0-9]{4}-[0-9]{2}-[0-9]{2}";
        assert!(m(date, "2007-03-14"));
        assert!(!m(date, "2007-3-14"));
        // SKU.
        assert!(m(r"[A-Z]{3}\d{4}", "ABC1234"));
        // US currency-ish.
        assert!(m(r"\d+(\.\d{2})?", "100"));
        assert!(m(r"\d+(\.\d{2})?", "100.99"));
        assert!(!m(r"\d+(\.\d{2})?", "100.9"));
    }

    #[test]
    fn compile_errors() {
        for bad in ["(", "a)", "[", "[]", "a{", "a{2", "a{3,2}", "[z-a]", "*a"] {
            assert!(Pattern::compile(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn matching_emits_trace_work() {
        use aon_trace::Tracer;
        let pat = Pattern::compile(r"[A-Z]{2}-\d+").unwrap();
        let mut t = Tracer::new();
        assert!(pat.matches(b"AB-12345", &mut t));
        let s = t.finish().stats();
        assert!(s.ops > 20, "NFA simulation must cost work, got {}", s.ops);
        assert!(s.loads > 5);
    }

    #[test]
    fn find_locates_substrings() {
        let pat = Pattern::compile("attack[0-9]+").unwrap();
        let mut p = NullProbe;
        assert!(pat.find(b"GET /attack99/path", &mut p).is_some());
        assert!(pat.find(b"attack7", &mut p).is_some());
        assert!(pat.find(b"no threats here", &mut p).is_none());
        assert!(pat.find(b"attack", &mut p).is_none(), "needs the digits");
        assert!(pat.find(b"", &mut p).is_none());
    }

    #[test]
    fn find_returns_end_of_first_match() {
        let pat = Pattern::compile("ab").unwrap();
        assert_eq!(pat.find(b"xxabyyab", &mut NullProbe), Some(4));
        assert_eq!(pat.find(b"ab", &mut NullProbe), Some(2));
    }

    #[test]
    fn find_empty_pattern_matches_immediately() {
        let pat = Pattern::compile("a*").unwrap();
        assert_eq!(pat.find(b"zzz", &mut NullProbe), Some(0));
    }

    #[test]
    fn find_agrees_with_anchored_dotstar() {
        // find(pat) == matches(".*pat.*") on a set of inputs.
        let inner = "[A-Z]{2}[0-9]";
        let find_pat = Pattern::compile(inner).unwrap();
        let anchored = Pattern::compile(&format!(".*({inner}).*")).unwrap();
        for input in [&b"xxAB1yy"[..], b"AB1", b"ab1", b"A1B", b"zzzAB", b""] {
            assert_eq!(
                find_pat.find(input, &mut NullProbe).is_some(),
                anchored.matches(input, &mut NullProbe),
                "disagreement on {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn nfas_beyond_the_inline_bound_match_the_same() {
        // Counted repetition expands: this NFA does not fit the stack
        // frontiers and takes the allocating path.
        let pat = Pattern::compile("[a-c]{70}x?").unwrap();
        assert!(pat.state_count() > INLINE_STATES, "{} states", pat.state_count());
        assert!(pat.matches(&[b'b'; 70], &mut NullProbe));
        assert!(pat.matches(&[&[b'c'; 70][..], b"x"].concat(), &mut NullProbe));
        assert!(!pat.matches(&[b'b'; 69], &mut NullProbe));
        assert!(!pat.matches(&[b'b'; 71], &mut NullProbe));
        assert_eq!(pat.find(&[&b"zz"[..], &[b'a'; 70]].concat(), &mut NullProbe), Some(72));
        assert_eq!(pat.find(&[b'a'; 69], &mut NullProbe), None);
    }

    #[test]
    fn no_pathological_blowup() {
        // (a|a)* style patterns are linear with Thompson simulation.
        let pat = Pattern::compile("(a|a)*b").unwrap();
        let input = vec![b'a'; 200];
        assert!(!pat.matches(&input, &mut NullProbe));
    }

    /// Every pattern of the tests above, the two of the corpus XSD and the
    /// two of `schema`'s tests, each with strings it accepts.
    const ACCEPTED: &[(&str, &[&str])] = &[
        ("abc", &["abc"]),
        ("a.c", &["abc", "a!c"]),
        ("[a-z]+", &["hello", "z"]),
        ("[^0-9]+", &["abc", "\u{e9}!"]),
        ("[-+]?[0-9]+", &["+42", "7", "-0"]),
        (r"\d+", &["123"]),
        (r"\D\S\W", &["a-!"]),
        (r"\w+", &["ab_1"]),
        (r"\s*x\s*", &["x", " \tx\r\n"]),
        (r"a\.b", &["a.b"]),
        (r"a\nb\tc\rd", &["a\nb\tc\rd"]),
        (r"[\d]+-[\w]+", &["12-ab"]),
        ("ab*c", &["ac", "abbbc"]),
        ("ab+c", &["abc", "abbc"]),
        ("ab?c", &["ac", "abc"]),
        ("a{3}", &["aaa"]),
        ("a{2,4}", &["aa", "aaaa"]),
        ("a{2,}", &["aa", "aaaaaa"]),
        ("a{0,2}b", &["b", "ab", "aab"]),
        ("[A-Z]{2}-[0-9]+", &["AB-123"]),
        ("cat|dog", &["cat", "dog"]),
        ("(ab)+", &["ab", "ababab"]),
        ("a(b|c)d", &["abd", "acd"]),
        ("a(b|)c", &["abc", "ac"]),
        (r"[0-9]{4}-[0-9]{2}-[0-9]{2}", &["2007-03-14"]),
        (r"[A-Z]{3}\d{4}", &["ABC1234"]),
        (r"\d+(\.\d{2})?", &["100", "100.99"]),
        (r"[A-Z]{2}-\d+", &["AB-12345"]),
        ("attack[0-9]+", &["attack99"]),
        ("ab", &["ab"]),
        ("a*", &["", "aaa"]),
        ("[A-Z]{2}[0-9]", &["AB1"]),
        (".*([A-Z]{2}[0-9]).*", &["xxAB1yy", "AB1"]),
        ("(a|a)*b", &["b", "aaab"]),
        ("S[0-9]+", &["S1", "S22"]),
        ("[A-Z]{2}[0-9]{3,6}", &["AB123", "QX123456"]),
        (r"[0-9]+\.[0-9][0-9]", &["4999.00", "0.35"]),
    ];

    /// The DFA answers as the NFA does: on each accepted string, all its
    /// prefixes, every one-byte mutation, insertion and deletion (all 256
    /// byte values, so non-ASCII too), the empty string, and with
    /// whitespace or a multi-byte character at either end (the facet sees
    /// trimmed text; the automata must agree on untrimmed text as well).
    #[test]
    fn dfa_agrees_with_nfa() {
        let mut outcomes = [0usize; 2];
        for (src, accepted) in ACCEPTED {
            let pat = Pattern::compile(src).unwrap();
            let dfa = pat.to_dfa().unwrap_or_else(|| panic!("{src:?} should determinise"));
            let mut check = |input: &[u8]| {
                let want = pat.matches(input, &mut NullProbe);
                let shown = String::from_utf8_lossy(input);
                assert_eq!(dfa.matches(input), want, "{src:?} on {shown:?}");
                outcomes[usize::from(want)] += 1;
            };
            check(b"");
            for s in accepted.iter().map(|s| s.as_bytes()) {
                assert!(pat.matches(s, &mut NullProbe), "{src:?} must accept {s:?}");
                for cut in 0..=s.len() {
                    check(&s[..cut]);
                }
                for at in 0..=s.len() {
                    for b in 0..=u8::MAX {
                        check(&[&s[..at], &[b], &s[at..]].concat());
                        if at < s.len() {
                            check(&[&s[..at], &[b], &s[at + 1..]].concat());
                        }
                    }
                    if at < s.len() {
                        check(&[&s[..at], &s[at + 1..]].concat());
                    }
                }
                for (before, after) in
                    [(" ", ""), ("", " "), ("\t\r", "\n"), ("\u{e9}", "\u{20ac}")]
                {
                    check(&[before.as_bytes(), s, after.as_bytes()].concat());
                }
            }
        }
        assert!(outcomes[0] > 10_000 && outcomes[1] > 1_000, "both answers: {outcomes:?}");
    }

    #[test]
    fn dfa_tables_span_the_patterns_own_byte_classes() {
        // Letters, digits, everything else — whatever the repetition counts.
        let sku = Pattern::compile("[A-Z]{2}[0-9]{3,6}").unwrap().to_dfa().unwrap();
        assert_eq!(sku.class_count(), 3);
        assert!(sku.state_count() <= 16, "{} states", sku.state_count());
        // `.` tells no bytes apart; negation keeps the positive class's bounds.
        assert_eq!(Pattern::compile(".*").unwrap().to_dfa().unwrap().class_count(), 1);
        assert_eq!(Pattern::compile("[^a-c]x").unwrap().to_dfa().unwrap().class_count(), 3);
        // Classes reaching the ends of the byte range.
        let edges = Pattern::compile("[\u{0}-a]\\W").unwrap().to_dfa().unwrap();
        assert!(edges.matches(b"\0\xff") && edges.matches(b"a ") && !edges.matches(b"bb"));
    }

    #[test]
    fn subset_construction_gives_up_at_the_state_cap() {
        // The 13th symbol from the end is an `a`: 2^13 subsets.
        let wide = Pattern::compile("(a|b)*a(a|b){12}").unwrap();
        assert!(wide.to_dfa().is_none());
        assert!(wide.matches(b"abbbbbbbbbbbb", &mut NullProbe));
        // Long but linear — an NFA beyond the stack frontiers, and as many
        // DFA states as it has positions.
        let long = Pattern::compile("[a-c]{70}x?").unwrap();
        let dfa = long.to_dfa().unwrap();
        assert!(dfa.state_count() > INLINE_STATES && dfa.state_count() <= MAX_DFA_STATES);
        let accepted = [&[b'b'; 70][..], b"x"].concat();
        for cut in 0..=accepted.len() {
            let input = &accepted[..cut];
            assert_eq!(dfa.matches(input), long.matches(input, &mut NullProbe), "cut {cut}");
            assert_eq!(dfa.matches(input), cut >= 70);
        }
    }
}
