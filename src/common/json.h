/**
 * @file
 * Minimal dependency-free JSON value type with a recursive-descent
 * parser and a writer, used by the scheduler API (ScheduleRequest /
 * ScheduleResult serialization), the somac CLI and the benches'
 * --json metric sink.
 *
 * Fidelity guarantees needed by the API layer:
 *  - doubles are emitted with %.17g, so a Dump/Parse round trip is
 *    bit-exact (the acceptance bar for somac vs in-process results);
 *  - unsigned 64-bit integers (seeds) are kept exactly: values set via
 *    Json::U64 or parsed from non-negative integer literals carry the
 *    exact std::uint64_t alongside the double view;
 *  - object member order is preserved (stable, diffable output).
 *
 * Non-finite doubles have no JSON representation and are emitted as
 * null (EvalReport::latency is +inf for invalid schemes).
 */
#ifndef SOMA_COMMON_JSON_H
#define SOMA_COMMON_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace soma {

class Json {
  public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Json() = default;

    static Json Null() { return Json(); }
    static Json Bool(bool b);
    static Json Number(double d);
    static Json Int(std::int64_t i);
    static Json U64(std::uint64_t u);
    static Json Str(std::string s);
    static Json Array();
    static Json Object();

    Type type() const { return type_; }
    bool IsNull() const { return type_ == Type::kNull; }
    bool IsBool() const { return type_ == Type::kBool; }
    bool IsNumber() const { return type_ == Type::kNumber; }
    bool IsString() const { return type_ == Type::kString; }
    bool IsArray() const { return type_ == Type::kArray; }
    bool IsObject() const { return type_ == Type::kObject; }

    bool AsBool(bool dflt = false) const;
    double AsDouble(double dflt = 0.0) const;
    std::int64_t AsInt(std::int64_t dflt = 0) const;
    /** Exact for values set via U64 / parsed integer literals; other
     *  numbers truncate, saturating at UINT64_MAX (negative and NaN
     *  values yield @p dflt). */
    std::uint64_t AsU64(std::uint64_t dflt = 0) const;
    /** True for numbers that carry an exact std::uint64_t (set via
     *  U64, or a non-negative Int, or parsed from an integer literal
     *  that fits). */
    bool IsU64() const { return type_ == Type::kNumber && exact_u64_; }
    const std::string &AsString() const;  ///< empty unless a string

    // ----- arrays -----
    std::size_t size() const { return arr_.size(); }
    const Json &at(std::size_t i) const { return arr_[i]; }
    const std::vector<Json> &array_items() const { return arr_; }
    /** Appends to an array (converts a null value into an array). */
    Json &Append(Json v);

    // ----- objects -----
    /** Member lookup; nullptr when absent or not an object. */
    const Json *Find(const std::string &key) const;
    /** Sets (or replaces) a member; converts a null value into an
     *  object. Returns *this for chaining. */
    Json &Set(const std::string &key, Json v);
    /** Removes a member; true if it existed. */
    bool Erase(const std::string &key);
    const std::vector<std::pair<std::string, Json>> &items() const
    {
        return obj_;
    }

    /** Serialize. indent < 0: compact; otherwise pretty-printed with
     *  @p indent spaces per level. */
    std::string Dump(int indent = -1) const;

    /**
     * Canonical serialization: compact, with object members emitted in
     * bytewise-sorted key order at every level (duplicate-free by
     * construction — Set replaces). Two Json values that differ only in
     * member insertion order dump to identical canonical text, which is
     * what request fingerprinting (service layer) hashes.
     */
    std::string CanonicalDump() const;

    /**
     * Parse @p text into @p out. On failure returns false and sets
     * @p err to a message with the byte offset. Trailing garbage after
     * the top-level value is an error.
     */
    static bool Parse(const std::string &text, Json *out, std::string *err);

  private:
    void DumpTo(std::string *out, int indent, int depth,
                bool sorted = false) const;

    Type type_ = Type::kNull;
    bool bool_ = false;
    double num_ = 0.0;
    std::uint64_t u64_ = 0;   ///< exact payload when exact_u64_
    bool exact_u64_ = false;  ///< num_ mirrors u64_ (possibly rounded)
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace soma

#endif  // SOMA_COMMON_JSON_H
