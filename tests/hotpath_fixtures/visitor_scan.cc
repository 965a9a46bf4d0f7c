// Fixture: the visitor idiom of the range-scan module. A template tile
// walk hands each scored tile to a lambda; the annotated root that
// passes the lambda owns its body, so an allocation inside the lambda
// is reachable from the root.
// Expected: one [alloc] finding in fixture::HotVisitorScan.
#include <cstddef>
#include <vector>

#include "util/hotpath.h"

namespace fixture {

template <typename VisitFn>
KGE_HOT_NOALLOC void WalkTiles(const float* scores, std::size_t n,
                               std::size_t rows_per_tile, VisitFn visit) {
  for (std::size_t row0 = 0; row0 < n; row0 += rows_per_tile) {
    const std::size_t len =
        n - row0 < rows_per_tile ? n - row0 : rows_per_tile;
    visit(scores + row0, len);
  }
}

KGE_HOT_NOALLOC
void HotVisitorScan(const float* scores, std::size_t n, float threshold,
                    std::vector<float>* kept) {
  WalkTiles(scores, n, 64, [&](const float* tile, std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) {
      if (tile[i] > threshold) kept->push_back(tile[i]);
    }
  });
}

}  // namespace fixture
