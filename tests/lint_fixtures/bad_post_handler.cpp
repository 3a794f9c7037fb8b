// Seeded violation: a lambda handler handed to post() with no owner-thread
// RNL_DCHECK in its body. lint_concurrency.py must flag the call.
#include <cstddef>
#include <functional>

namespace fixture {

void post(std::size_t shard, std::function<void()> fn);
void clear_end(std::size_t peer);

inline void teardown(std::size_t shard, std::size_t peer) {
  post(shard, [peer] { clear_end(peer); });
}

}  // namespace fixture
