#include "core/block_cache.h"

#include <algorithm>
#include <utility>

namespace cabt::core {

BlockCache::BlockCache(std::shared_ptr<const ProgramArtifact> artifact)
    : artifact_(std::move(artifact)), branch_(artifact_->branch()) {
  const std::vector<Block>& recs = artifact_->graph().blocks();
  blocks_.resize(recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    blocks_[i].rec = &recs[i];
  }
}

std::vector<const ExecBlock*> BlockCache::hottest(size_t n) const {
  std::vector<const ExecBlock*> out;
  out.reserve(blocks_.size());
  for (const ExecBlock& b : blocks_) {
    if (b.exec_count > 0) {
      out.push_back(&b);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ExecBlock* a, const ExecBlock* b) {
              return a->exec_count != b->exec_count
                         ? a->exec_count > b->exec_count
                         : a->addr() < b->addr();
            });
  if (out.size() > n) {
    out.resize(n);
  }
  return out;
}

}  // namespace cabt::core
