/**
 * @file
 * somalint — the repo's determinism & concurrency invariant checker.
 *
 * A dependency-free token-level lint over src/ tools/ bench/ that turns
 * the project's prose contracts (DESIGN.md "Static analysis &
 * concurrency discipline") into a CI gate. Six checks:
 *
 *  - wallclock: no wall-clock or libc randomness in scheduling code.
 *    Every TTL, deadline and expiry in the tree is steady_clock
 *    arithmetic and every random draw goes through soma::Rng; a stray
 *    std::time(nullptr) seed or system_clock comparison silently breaks
 *    reproducibility and the clock-jump immunity the service documents.
 *    Flags: `system_clock`, `gettimeofday`, `localtime`, `gmtime`,
 *    `mktime`, `asctime`, `ctime`, and calls to `time(`, `clock(`,
 *    `rand(`, `srand(` (member calls like `sink.time()` are fine).
 *
 *  - unordered-iter: no hash-order-dependent iteration in files that
 *    produce canonical bytes. Iterating an unordered_{map,set} is
 *    unspecified order; in a file that computes fingerprints, persisted
 *    cache entries, CSV tables or canonical dumps, such a loop can leak
 *    hash order into output bytes (the exact bug class behind the old
 *    `negative_.erase(negative_.begin())` victim selection). Flags
 *    range-for over a tracked unordered container, `.begin()`/
 *    `.cbegin()` on one anywhere, and `.end()`/`.cend()` inside a for
 *    header — but only in *sensitive* files (ones whose code mentions
 *    Fingerprint / CanonicalDump / Csv / ToJson / ToText / Serialize /
 *    persist). Order-independent folds (sums, expiry sweeps,
 *    deterministic min-scans) take an explicit waiver.
 *
 *  - raw-mutex: all locking goes through common/thread_annotations.h.
 *    Clang's thread-safety analysis cannot see through libstdc++'s
 *    unannotated std::lock_guard/std::unique_lock, so one raw
 *    `std::mutex` re-opens the hole the annotations closed. Flags any
 *    `std::{mutex, shared_mutex, condition_variable[_any], lock_guard,
 *    unique_lock, shared_lock, scoped_lock}` outside
 *    thread_annotations.h itself.
 *
 *  - steady-now: no raw steady_clock::now() reads outside src/obs/.
 *    The obs clock helpers (obs::MonotonicNow / obs::SecondsSince in
 *    src/obs/clock.h) are the repo's one source of monotonic now, so
 *    span tracing, profiling hooks and fake-clock tests share a single
 *    seam. Flags `steady_clock::now(` and `Alias::now(` for any alias
 *    introduced by `using Alias = ... steady_clock;` in the same file.
 *    steady_clock::time_point *types* stay fine — only the read is
 *    centralized.
 *
 *  - guarded-field: every class that owns a soma::Mutex/SharedMutex
 *    must say, per field, what that lock protects. Each non-function
 *    member of such a class must carry SOMA_GUARDED_BY/
 *    SOMA_PT_GUARDED_BY, be an atomic, be const, be the capability or a
 *    CondVar itself — or carry a waiver naming why it is safe
 *    unguarded (internally-synchronized sub-objects, pre-scheduling
 *    configuration).
 *
 *  - hot-alloc: no heap growth inside loops in SOMA_PROF_SCOPE-marked
 *    hot paths. A prof scope marks code that runs once per SA
 *    candidate (timeline simulation, tile-cost evaluation, the
 *    incremental parse); a `new`, `make_unique`/`make_shared`, or
 *    vector growth call (`push_back`/`emplace_back`/`resize`/
 *    `reserve`/`insert`) inside a loop there turns the per-candidate
 *    cost from "reuse the EvalContext's warmed-up scratch" back into
 *    malloc traffic. Scans forward from each SOMA_PROF_SCOPE to the
 *    end of its enclosing block and flags growth calls inside any
 *    for/while/do loop in that region. `.assign()`/`std::copy_n` onto
 *    pre-sized storage stay fine — that is the scratch discipline.
 *    Amortized allocations (cache-miss derivation, dirty-group
 *    re-parse) take an explicit waiver naming why they are off the
 *    per-candidate path.
 *
 * Waivers: `// somalint: allow(<check>[, <check>]) <reason>` on the
 * finding's line or the line directly above it. Waivers are per-line
 * and per-check; the reason text is free-form but expected.
 *
 * Usage: somalint <file-or-dir>... ; exits 0 when clean, 1 with
 * findings (one `path:line: [check] message` per line), 2 on usage
 * errors. Deterministic output: files and findings are sorted.
 */
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
    std::string path;
    int line = 0;
    std::string check;
    std::string message;

    bool operator<(const Finding &o) const
    {
        if (path != o.path) return path < o.path;
        if (line != o.line) return line < o.line;
        if (check != o.check) return check < o.check;
        return message < o.message;
    }
};

struct Token {
    std::string text;
    int line = 0;
    bool is_identifier = false;
};

/** One scanned file: code with comments/literals blanked out, the
 *  token stream, and the per-line waiver sets parsed from comments. */
struct FileScan {
    std::string path;
    std::vector<Token> tokens;
    std::map<int, std::set<std::string>> waivers;  ///< line -> checks
};

bool
IsIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Parse `somalint: allow(a, b) ...` out of one comment's text and
 *  record the named checks as waived on @p line. */
void
ParseWaiver(const std::string &comment, int line, FileScan *scan)
{
    const std::size_t tag = comment.find("somalint:");
    if (tag == std::string::npos) return;
    const std::size_t open = comment.find("allow(", tag);
    if (open == std::string::npos) return;
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) return;
    std::string list = comment.substr(open + 6, close - open - 6);
    std::string item;
    std::istringstream is(list);
    while (std::getline(is, item, ',')) {
        const std::size_t b = item.find_first_not_of(" \t");
        const std::size_t e = item.find_last_not_of(" \t");
        if (b == std::string::npos) continue;
        scan->waivers[line].insert(item.substr(b, e - b + 1));
    }
}

/**
 * Strip comments, string literals and char literals (preserving
 * newlines so token lines stay true), collecting waiver comments as we
 * go. Handles //, C comments, escapes, and R"delim(...)delim" raw
 * strings.
 */
std::string
StripAndCollect(const std::string &src, FileScan *scan)
{
    std::string out;
    out.reserve(src.size());
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = src.size();
    auto put = [&](char c) { out.push_back(c); };
    bool at_line_start = true;
    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            put('\n');
            ++line;
            ++i;
            at_line_start = true;
            continue;
        }
        // Preprocessor directives (#include <ctime>, #define, ...) are
        // not code the checks should read; blank them, honoring line
        // continuations.
        if (at_line_start && c == '#') {
            while (i < n) {
                if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
                    put('\n');
                    ++line;
                    i += 2;
                    continue;
                }
                if (src[i] == '\n') break;
                ++i;
            }
            continue;
        }
        if (!std::isspace(static_cast<unsigned char>(c)))
            at_line_start = false;
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            const int at = line;
            std::string text;
            while (i < n && src[i] != '\n') text.push_back(src[i++]);
            ParseWaiver(text, at, scan);
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            const int at = line;
            std::string text;
            i += 2;
            while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
                if (src[i] == '\n') {
                    put('\n');
                    ++line;
                }
                text.push_back(src[i++]);
            }
            i = i + 1 < n ? i + 2 : n;
            ParseWaiver(text, at, scan);
            continue;
        }
        if (c == 'R' && i + 1 < n && src[i + 1] == '"' &&
            (i == 0 || !IsIdentChar(src[i - 1]))) {
            // Raw string: R"delim( ... )delim"
            std::size_t p = i + 2;
            std::string delim;
            while (p < n && src[p] != '(') delim.push_back(src[p++]);
            const std::string closer = ")" + delim + "\"";
            std::size_t end = src.find(closer, p);
            if (end == std::string::npos) end = n;
            for (std::size_t k = i; k < end && k < n; ++k)
                if (src[k] == '\n') {
                    put('\n');
                    ++line;
                }
            i = std::min(n, end + closer.size());
            continue;
        }
        if (c == '"' || c == '\'') {
            const char quote = c;
            ++i;
            while (i < n && src[i] != quote) {
                if (src[i] == '\\' && i + 1 < n) ++i;
                if (src[i] == '\n') {
                    put('\n');
                    ++line;
                }
                ++i;
            }
            if (i < n) ++i;  // closing quote
            put(' ');        // literals read as one blank token break
            continue;
        }
        put(c);
        ++i;
    }
    return out;
}

/** Tokenize blanked code into identifiers, numbers and punctuation
 *  (with `::`, `->`, `.*` kept as single tokens where it matters). */
void
Tokenize(const std::string &code, FileScan *scan)
{
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = code.size();
    while (i < n) {
        const char c = code[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        Token t;
        t.line = line;
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            while (i < n && IsIdentChar(code[i])) t.text.push_back(code[i++]);
            t.is_identifier = true;
        } else if (std::isdigit(static_cast<unsigned char>(c))) {
            while (i < n && (IsIdentChar(code[i]) || code[i] == '.' ||
                             code[i] == '\''))
                t.text.push_back(code[i++]);
        } else if (c == ':' && i + 1 < n && code[i + 1] == ':') {
            t.text = "::";
            i += 2;
        } else if (c == '-' && i + 1 < n && code[i + 1] == '>') {
            t.text = "->";
            i += 2;
        } else {
            t.text.push_back(c);
            ++i;
        }
        scan->tokens.push_back(std::move(t));
    }
}

bool
Waived(const FileScan &scan, int line, const std::string &check)
{
    for (int l : {line, line - 1}) {
        auto it = scan.waivers.find(l);
        if (it != scan.waivers.end() && it->second.count(check)) return true;
    }
    return false;
}

void
Report(const FileScan &scan, int line, const std::string &check,
       std::string message, std::vector<Finding> *findings)
{
    if (Waived(scan, line, check)) return;
    findings->push_back(Finding{scan.path, line, check, std::move(message)});
}

// ---------------------------------------------------------------------------
// Check: wallclock
// ---------------------------------------------------------------------------

void
CheckWallclock(const FileScan &scan, std::vector<Finding> *findings)
{
    static const std::set<std::string> kBannedAlways = {
        "system_clock", "gettimeofday", "localtime", "gmtime", "mktime",
    };
    static const std::set<std::string> kBannedCalls = {
        "time", "clock", "rand", "srand", "asctime", "ctime",
    };
    const auto &toks = scan.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (!t.is_identifier) continue;
        if (kBannedAlways.count(t.text)) {
            Report(scan, t.line, "wallclock",
                   "'" + t.text +
                       "' breaks the steady-clock-only discipline "
                       "(TTLs/deadlines must survive wall-clock jumps)",
                   findings);
            continue;
        }
        if (kBannedCalls.count(t.text) && i + 1 < toks.size() &&
            toks[i + 1].text == "(") {
            // Member calls (state.time(), obj->clock()) are unrelated,
            // and so are *declarations* of a member named time() —
            // there the preceding token is the return type, an
            // identifier. A call site's preceding token is an operator,
            // `::` (std::time) or the `return` keyword.
            if (i > 0 &&
                (toks[i - 1].text == "." || toks[i - 1].text == "->"))
                continue;
            if (i > 0 && toks[i - 1].is_identifier &&
                toks[i - 1].text != "return")
                continue;
            Report(scan, t.line, "wallclock",
                   "call to '" + t.text +
                       "(' — use steady-clock arithmetic "
                       "(obs::MonotonicNow) / soma::Rng for "
                       "reproducible scheduling",
                   findings);
        }
    }
}

// ---------------------------------------------------------------------------
// Check: unordered-iter
// ---------------------------------------------------------------------------

bool
IsSensitiveFile(const FileScan &scan)
{
    static const std::vector<std::string> kMarkers = {
        "CanonicalDump", "Fingerprint", "Csv",       "ToJson",
        "ToText",        "Serialize",   "Persist",   "persist",
    };
    for (const Token &t : scan.tokens) {
        if (!t.is_identifier) continue;
        for (const std::string &m : kMarkers)
            if (t.text.find(m) != std::string::npos) return true;
    }
    return false;
}

/** Names of variables/members declared with an unordered container
 *  type anywhere in the file (declaration-site tracking; scoping is
 *  deliberately ignored — shadowing across scopes would only make the
 *  check stricter). */
std::set<std::string>
TrackedUnorderedNames(const FileScan &scan)
{
    static const std::set<std::string> kUnordered = {
        "unordered_map",
        "unordered_set",
        "unordered_multimap",
        "unordered_multiset",
    };
    std::set<std::string> names;
    const auto &toks = scan.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].is_identifier || !kUnordered.count(toks[i].text))
            continue;
        std::size_t j = i + 1;
        if (j >= toks.size() || toks[j].text != "<") continue;
        int depth = 0;
        for (; j < toks.size(); ++j) {
            if (toks[j].text == "<") ++depth;
            if (toks[j].text == ">" && --depth == 0) break;
        }
        if (j >= toks.size()) continue;
        ++j;  // past the closing '>'
        while (j < toks.size() &&
               (toks[j].text == "*" || toks[j].text == "&" ||
                toks[j].text == "const"))
            ++j;
        if (j >= toks.size() || !toks[j].is_identifier) continue;
        // `unordered_map<...> Foo(` is a function declaration, not a
        // variable of that type.
        if (j + 1 < toks.size() && toks[j + 1].text == "(") continue;
        names.insert(toks[j].text);
    }
    return names;
}

void
CheckUnorderedIter(const FileScan &scan,
                   const std::set<std::string> &header_names,
                   std::vector<Finding> *findings)
{
    if (!IsSensitiveFile(scan)) return;
    std::set<std::string> tracked = TrackedUnorderedNames(scan);
    tracked.insert(header_names.begin(), header_names.end());
    if (tracked.empty()) return;
    const auto &toks = scan.tokens;

    auto flag = [&](int line, const std::string &name,
                    const std::string &how) {
        Report(scan, line, "unordered-iter",
               how + " over unordered container '" + name +
                   "' in a canonical-output file — hash iteration order "
                   "can leak into persisted/serialized bytes; sort "
                   "first or waive with a reason",
               findings);
    };

    // `.begin(` / `.cbegin(` on a tracked name, anywhere.
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (!toks[i].is_identifier || !tracked.count(toks[i].text))
            continue;
        if (toks[i + 1].text != "." && toks[i + 1].text != "->") continue;
        const std::string &m = toks[i + 2].text;
        if ((m == "begin" || m == "cbegin") && toks[i + 3].text == "(")
            flag(toks[i].line, toks[i].text, "iterator traversal");
    }

    // for-headers: range-for over a tracked name, or an explicit
    // iterator loop bounded by `tracked.end()`.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].is_identifier || toks[i].text != "for") continue;
        if (toks[i + 1].text != "(") continue;
        std::size_t j = i + 1;
        int depth = 0;
        std::size_t colon = 0;
        std::size_t close = toks.size();
        for (; j < toks.size(); ++j) {
            if (toks[j].text == "(") ++depth;
            if (toks[j].text == ")" && --depth == 0) {
                close = j;
                break;
            }
            if (toks[j].text == ":" && depth == 1 && colon == 0) colon = j;
        }
        if (colon != 0) {
            for (std::size_t k = colon + 1; k < close; ++k)
                if (toks[k].is_identifier && tracked.count(toks[k].text)) {
                    flag(toks[i].line, toks[k].text, "range-for");
                    break;
                }
        } else {
            for (std::size_t k = i + 2; k + 3 < close + 3 && k + 3 <= close;
                 ++k) {
                if (!toks[k].is_identifier || !tracked.count(toks[k].text))
                    continue;
                if (toks[k + 1].text != "." && toks[k + 1].text != "->")
                    continue;
                const std::string &m = toks[k + 2].text;
                if ((m == "end" || m == "cend") &&
                    toks[k + 3].text == "(") {
                    flag(toks[i].line, toks[k].text, "iterator loop");
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Check: steady-now
// ---------------------------------------------------------------------------

/** True for paths inside an `obs/` directory — the one place allowed
 *  to read the monotonic clock directly (it implements the helper). */
bool
InObsDirectory(const std::string &path)
{
    for (const fs::path &part : fs::path(path))
        if (part == "obs") return true;
    return false;
}

void
CheckSteadyNow(const FileScan &scan, std::vector<Finding> *findings)
{
    if (InObsDirectory(scan.path)) return;
    const auto &toks = scan.tokens;

    // `steady_clock` plus every same-file alias of it:
    // `using Clock = std::chrono::steady_clock;` makes `Clock::now()`
    // just as raw as the spelled-out call.
    std::set<std::string> clock_names = {"steady_clock"};
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (!toks[i].is_identifier || toks[i].text != "using") continue;
        if (!toks[i + 1].is_identifier || toks[i + 2].text != "=")
            continue;
        for (std::size_t j = i + 3;
             j < toks.size() && toks[j].text != ";"; ++j) {
            if (toks[j].text == "steady_clock") {
                clock_names.insert(toks[i + 1].text);
                break;
            }
        }
    }

    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (!toks[i].is_identifier || !clock_names.count(toks[i].text))
            continue;
        if (toks[i + 1].text != "::" || toks[i + 2].text != "now" ||
            toks[i + 3].text != "(")
            continue;
        Report(scan, toks[i].line, "steady-now",
               "raw '" + toks[i].text +
                   "::now()' — read the monotonic clock through "
                   "obs::MonotonicNow()/obs::SecondsSince() "
                   "(src/obs/clock.h) so every timestamp shares one "
                   "seam",
               findings);
    }
}

// ---------------------------------------------------------------------------
// Check: raw-mutex
// ---------------------------------------------------------------------------

void
CheckRawMutex(const FileScan &scan, std::vector<Finding> *findings)
{
    if (fs::path(scan.path).filename() == "thread_annotations.h") return;
    static const std::set<std::string> kRaw = {
        "mutex",          "shared_mutex",
        "recursive_mutex", "timed_mutex",
        "condition_variable", "condition_variable_any",
        "lock_guard",     "unique_lock",
        "shared_lock",    "scoped_lock",
    };
    const auto &toks = scan.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].text != "std" || toks[i + 1].text != "::") continue;
        const Token &t = toks[i + 2];
        if (t.is_identifier && kRaw.count(t.text))
            Report(scan, t.line, "raw-mutex",
                   "raw 'std::" + t.text +
                       "' — use the capability-annotated wrappers in "
                       "common/thread_annotations.h so clang's "
                       "thread-safety analysis can see the locking",
                   findings);
    }
}

// ---------------------------------------------------------------------------
// Check: guarded-field
// ---------------------------------------------------------------------------

struct MemberStatement {
    int line = 0;
    std::vector<std::string> tokens;
    bool has_body = false;  ///< ended by a {...} body, not a ';'
};

/** Scan a class body starting at the '{' token index @p open; returns
 *  the index just past the matching '}'. Member statements of THIS
 *  class (not of nested classes, not function-body statements) are
 *  appended to @p out. Recurses into nested classes/structs via
 *  @p classes (each entry: the collected members of one class). */
std::size_t
ParseClassBody(const std::vector<Token> &toks, std::size_t open,
               std::vector<std::vector<MemberStatement>> *classes)
{
    std::vector<MemberStatement> members;
    std::size_t i = open + 1;
    MemberStatement cur;
    auto flush = [&](bool body) {
        if (!cur.tokens.empty()) {
            cur.has_body = body;
            members.push_back(cur);
        }
        cur = MemberStatement{};
    };
    while (i < toks.size() && toks[i].text != "}") {
        const Token &t = toks[i];
        // Access specifiers reset the pending statement.
        if (t.is_identifier &&
            (t.text == "public" || t.text == "private" ||
             t.text == "protected") &&
            i + 1 < toks.size() && toks[i + 1].text == ":" &&
            cur.tokens.empty()) {
            i += 2;
            continue;
        }
        if (t.is_identifier &&
            (t.text == "class" || t.text == "struct" ||
             t.text == "union" || t.text == "enum")) {
            // Nested type: skip (or recurse) over its body, then eat
            // the trailing declarator/semicolon as a plain member.
            const bool is_class = t.text == "class" || t.text == "struct";
            std::size_t j = i + 1;
            while (j < toks.size() && toks[j].text != "{" &&
                   toks[j].text != ";")
                ++j;
            if (j < toks.size() && toks[j].text == "{") {
                if (is_class) {
                    j = ParseClassBody(toks, j, classes);
                } else {
                    int depth = 0;
                    for (; j < toks.size(); ++j) {
                        if (toks[j].text == "{") ++depth;
                        if (toks[j].text == "}" && --depth == 0) break;
                    }
                    ++j;
                }
            }
            // Forward decl or closing `;` (possibly with a declarator
            // we conservatively ignore).
            while (j < toks.size() && toks[j].text != ";") ++j;
            i = j < toks.size() ? j + 1 : j;
            cur = MemberStatement{};
            continue;
        }
        if (t.text == ";") {
            flush(/*body=*/false);
            ++i;
            continue;
        }
        if (t.text == "{") {
            // In-class function body or brace initializer. A brace
            // init (`std::atomic<int> x{0};`) ends with `};` and is a
            // field; a function body's `}` is not followed by `;`.
            int depth = 0;
            std::size_t j = i;
            for (; j < toks.size(); ++j) {
                if (toks[j].text == "{") ++depth;
                if (toks[j].text == "}" && --depth == 0) break;
            }
            const bool init =
                j + 1 < toks.size() && toks[j + 1].text == ";";
            flush(/*body=*/!init);
            i = j + 1 + (init ? 1 : 0);
            continue;
        }
        if (cur.tokens.empty()) cur.line = t.line;
        cur.tokens.push_back(t.text);
        ++i;
    }
    classes->push_back(std::move(members));
    return i + 1;
}

bool
Contains(const MemberStatement &m, const std::string &tok)
{
    return std::find(m.tokens.begin(), m.tokens.end(), tok) !=
           m.tokens.end();
}

void
CheckGuardedFields(const FileScan &scan, std::vector<Finding> *findings)
{
    if (fs::path(scan.path).filename() == "thread_annotations.h") return;
    const auto &toks = scan.tokens;
    std::vector<std::vector<MemberStatement>> classes;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].is_identifier ||
            (toks[i].text != "class" && toks[i].text != "struct"))
            continue;
        // Only top-level class definitions here; ParseClassBody
        // recurses into nested ones itself.
        std::size_t j = i + 1;
        while (j < toks.size() && toks[j].text != "{" &&
               toks[j].text != ";" && toks[j].text != "(")
            ++j;
        if (j >= toks.size() || toks[j].text != "{") {
            i = j;
            continue;
        }
        i = ParseClassBody(toks, j, &classes) - 1;
    }

    static const std::set<std::string> kCapabilities = {"Mutex",
                                                       "SharedMutex"};
    static const std::set<std::string> kSafeMarkers = {
        "SOMA_GUARDED_BY", "SOMA_PT_GUARDED_BY", "atomic", "const",
        "Mutex",           "SharedMutex",        "CondVar",
    };
    static const std::set<std::string> kNonFieldLead = {
        "static", "constexpr", "using",    "typedef", "friend",
        "template", "operator", "virtual", "explicit", "inline",
    };

    for (const auto &members : classes) {
        bool has_capability = false;
        for (const MemberStatement &m : members)
            if (!m.has_body &&
                (Contains(m, "Mutex") || Contains(m, "SharedMutex")))
                has_capability = true;
        if (!has_capability) continue;

        for (const MemberStatement &m : members) {
            if (m.has_body || m.tokens.empty()) continue;
            if (kNonFieldLead.count(m.tokens.front())) continue;
            bool safe = false;
            for (const std::string &t : m.tokens)
                if (kSafeMarkers.count(t)) {
                    safe = true;
                    break;
                }
            if (safe) continue;
            // Declarations whose parens precede any '=' are functions
            // (prototypes, std::function fields are exempted by their
            // template args' parens too — acceptable looseness).
            std::size_t paren = m.tokens.size(), assign = m.tokens.size();
            for (std::size_t k = 0; k < m.tokens.size(); ++k) {
                if (m.tokens[k] == "(" && paren == m.tokens.size())
                    paren = k;
                if (m.tokens[k] == "=" && assign == m.tokens.size())
                    assign = k;
            }
            if (paren < assign) continue;
            // Field name: the token just before `=`/`{`, else the last.
            std::string name = m.tokens.back();
            if (assign < m.tokens.size() && assign > 0)
                name = m.tokens[assign - 1];
            Report(scan, m.line, "guarded-field",
                   "mutable field '" + name +
                       "' in a Mutex-holding class lacks "
                       "SOMA_GUARDED_BY/atomic/const — annotate it or "
                       "waive with a reason",
                   findings);
        }
    }
}

// ---------------------------------------------------------------------------
// Check: hot-alloc
// ---------------------------------------------------------------------------

/**
 * Flag heap growth inside loops within a SOMA_PROF_SCOPE-marked
 * region. The region runs from the macro to the close of its enclosing
 * block; a loop is a `for`/`while` header (plus `do` blocks) inside
 * that region. Growth calls are `new`, `make_unique`/`make_shared`,
 * and container-growth members (`push_back`, `emplace_back`, `emplace`,
 * `resize`, `reserve`, `insert`) — `.assign`/`std::copy_n` onto
 * pre-sized storage are deliberately not flagged.
 */
void
CheckHotAlloc(const FileScan &scan, std::vector<Finding> *findings)
{
    if (fs::path(scan.path).filename() == "prof.h") return;
    static const std::set<std::string> kMakers = {"make_unique",
                                                  "make_shared"};
    static const std::set<std::string> kGrowth = {
        "push_back", "emplace_back", "emplace",
        "resize",    "reserve",      "insert",
    };
    const auto &toks = scan.tokens;
    for (std::size_t s = 0; s < toks.size(); ++s) {
        if (!toks[s].is_identifier || toks[s].text != "SOMA_PROF_SCOPE")
            continue;
        int depth = 0;          // brace depth relative to the macro
        int loop_depth = 0;     // brace-loop bodies currently open
        int stmt_loops = 0;     // single-statement loop bodies open
        std::vector<int> loop_open_depths;
        bool pending_header = false;  // saw for/while, inside its (...)
        bool awaiting_body = false;   // header closed, body token next
        int header_parens = 0;
        for (std::size_t j = s + 1; j < toks.size(); ++j) {
            const Token &t = toks[j];
            if (awaiting_body) {
                awaiting_body = false;
                if (t.text == "{") {
                    ++depth;
                    loop_open_depths.push_back(depth);
                    ++loop_depth;
                    continue;
                }
                ++stmt_loops;  // single-statement body, runs to ';'
            }
            if (pending_header) {
                if (t.text == "(") ++header_parens;
                if (t.text == ")" && --header_parens == 0) {
                    pending_header = false;
                    awaiting_body = true;
                }
                continue;
            }
            if (t.text == "{") {
                ++depth;
                continue;
            }
            if (t.text == "}") {
                if (!loop_open_depths.empty() &&
                    loop_open_depths.back() == depth) {
                    loop_open_depths.pop_back();
                    --loop_depth;
                }
                if (--depth < 0) break;  // left the scoped block
                continue;
            }
            if (t.text == ";" && stmt_loops > 0) {
                stmt_loops = 0;
                continue;
            }
            if (t.is_identifier &&
                (t.text == "for" || t.text == "while")) {
                // `do { ... } while (cond);` — the trailing while's
                // parens have no body; skipping them as a header would
                // otherwise mark the next statement a loop body.
                if (j > 0 && toks[j - 1].text == "}") {
                    pending_header = true;
                    header_parens = 0;
                    // consume the (...) but expect no body
                    int p = 0;
                    while (++j < toks.size()) {
                        if (toks[j].text == "(") ++p;
                        if (toks[j].text == ")" && --p == 0) break;
                    }
                    pending_header = false;
                    continue;
                }
                pending_header = true;
                header_parens = 0;
                continue;
            }
            if (t.is_identifier && t.text == "do") {
                awaiting_body = true;
                continue;
            }
            if (loop_depth == 0 && stmt_loops == 0) continue;
            if (!t.is_identifier) continue;
            if (t.text == "new") {
                Report(scan, t.line, "hot-alloc",
                       "'new' inside a loop in a SOMA_PROF_SCOPE "
                       "region — use pre-sized EvalContext "
                       "scratch; waive amortized paths with a "
                       "reason",
                       findings);
                continue;
            }
            if (kMakers.count(t.text)) {
                Report(scan, t.line, "hot-alloc",
                       "'" + t.text +
                           "' inside a loop in a SOMA_PROF_SCOPE "
                           "region — hoist the allocation out of the "
                           "hot loop or waive with a reason",
                       findings);
                continue;
            }
            if (kGrowth.count(t.text) && j > 0 &&
                (toks[j - 1].text == "." || toks[j - 1].text == "->") &&
                j + 1 < toks.size() && toks[j + 1].text == "(") {
                Report(scan, t.line, "hot-alloc",
                       "container growth '" + t.text +
                           "(' inside a loop in a SOMA_PROF_SCOPE "
                           "region — assign into pre-sized storage "
                           "(scratch discipline) or waive with a "
                           "reason",
                       findings);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool
IsSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc" || ext == ".hpp" || ext == ".cpp";
}

int
Run(const std::vector<std::string> &roots)
{
    std::vector<std::string> files;
    for (const std::string &root : roots) {
        std::error_code ec;
        if (fs::is_directory(root, ec)) {
            for (auto it = fs::recursive_directory_iterator(root, ec);
                 !ec && it != fs::recursive_directory_iterator(); ++it)
                if (it->is_regular_file() && IsSourceFile(it->path()))
                    files.push_back(it->path().string());
        } else if (fs::is_regular_file(root, ec)) {
            files.push_back(root);
        } else {
            std::fprintf(stderr, "somalint: no such file or directory: %s\n",
                         root.c_str());
            return 2;
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    std::vector<Finding> findings;
    for (const std::string &path : files) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "somalint: cannot read %s\n", path.c_str());
            return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        FileScan scan;
        scan.path = path;
        const std::string code = StripAndCollect(buf.str(), &scan);
        Tokenize(code, &scan);

        // A .cc file iterates members *declared in its header* — pull
        // the sibling header's unordered-container names in so
        // `for (kv : member_)` in the .cc is still seen.
        std::set<std::string> header_names;
        fs::path sibling = fs::path(path);
        if (sibling.extension() == ".cc" || sibling.extension() == ".cpp") {
            sibling.replace_extension(".h");
            std::ifstream hin(sibling, std::ios::binary);
            if (hin) {
                std::ostringstream hbuf;
                hbuf << hin.rdbuf();
                FileScan hscan;
                hscan.path = sibling.string();
                const std::string hcode =
                    StripAndCollect(hbuf.str(), &hscan);
                Tokenize(hcode, &hscan);
                header_names = TrackedUnorderedNames(hscan);
            }
        }

        CheckWallclock(scan, &findings);
        CheckUnorderedIter(scan, header_names, &findings);
        CheckSteadyNow(scan, &findings);
        CheckRawMutex(scan, &findings);
        CheckGuardedFields(scan, &findings);
        CheckHotAlloc(scan, &findings);
    }

    std::sort(findings.begin(), findings.end());
    // One finding per (file, line, check): overlapping detectors (a
    // `.begin()` inside a flagged for-header) collapse to one report.
    findings.erase(std::unique(findings.begin(), findings.end(),
                               [](const Finding &a, const Finding &b) {
                                   return a.path == b.path &&
                                          a.line == b.line &&
                                          a.check == b.check;
                               }),
                   findings.end());
    for (const Finding &f : findings)
        std::printf("%s:%d: [%s] %s\n", f.path.c_str(), f.line,
                    f.check.c_str(), f.message.c_str());
    if (!findings.empty()) {
        std::printf("somalint: %zu finding(s) in %zu file(s) scanned\n",
                    findings.size(), files.size());
        return 1;
    }
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: somalint <file-or-dir>...\n"
                     "checks: wallclock, unordered-iter, steady-now, "
                     "raw-mutex, guarded-field, hot-alloc\n"
                     "waive:  // somalint: allow(<check>[, <check>]) "
                     "<reason>\n");
        return 2;
    }
    std::vector<std::string> roots(argv + 1, argv + argc);
    return Run(roots);
}
