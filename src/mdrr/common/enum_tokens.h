// Text form of an enum from one {value, token} table: the table is the
// only place an enum's tokens are spelled, and both directions read it.

#ifndef MDRR_COMMON_ENUM_TOKENS_H_
#define MDRR_COMMON_ENUM_TOKENS_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "mdrr/common/status_or.h"

namespace mdrr {

template <typename E>
struct EnumToken {
  E value;
  const char* token;
};

// The token of `value`, or "unknown" for a value missing from `table`.
template <typename E, size_t N>
const char* TokenOf(const EnumToken<E> (&table)[N], E value) {
  for (const EnumToken<E>& entry : table) {
    if (entry.value == value) return entry.token;
  }
  return "unknown";
}

// The value spelled `token`; otherwise InvalidArgument
// "unknown <what> '<token>' (expected a|b|...)".
template <typename E, size_t N>
StatusOr<E> ValueOf(const EnumToken<E> (&table)[N], std::string_view token,
                    std::string_view what) {
  std::string expected;
  for (const EnumToken<E>& entry : table) {
    if (token == entry.token) return entry.value;
    if (!expected.empty()) expected += '|';
    expected += entry.token;
  }
  return Status::InvalidArgument("unknown " + std::string(what) + " '" +
                                 std::string(token) + "' (expected " +
                                 expected + ")");
}

}  // namespace mdrr

#endif  // MDRR_COMMON_ENUM_TOKENS_H_
