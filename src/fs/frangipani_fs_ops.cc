// Public operations of FrangipaniFs: namespace ops, data path, sync,
// recovery, and coherence callbacks. Split from frangipani_fs.cc only to
// keep translation units manageable.
#include <algorithm>
#include <cstring>

#include "src/base/logging.h"
#include "src/fs/frangipani_fs.h"

namespace frangipani {

namespace {
constexpr int kMaxOpRetries = 64;
constexpr int kAllocKindInode = 0;
constexpr int kAllocKindSmall = 1;
constexpr int kAllocKindLarge = 2;
}  // namespace

// ---------------------------------------------------------------------------
// Create / Mkdir / Symlink
// ---------------------------------------------------------------------------

StatusOr<uint64_t> FrangipaniFs::Create(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.create, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  if (options_.read_only) {
    return PermissionDenied("read-only mount");
  }
  for (int attempt = 0; attempt < kMaxOpRetries; ++attempt) {
    PathTarget t;
    RETURN_IF_ERROR(ResolveDir(path, &t));
    if (t.ino != 0) {
      return AlreadyExists(path);
    }
    ASSIGN_OR_RETURN(uint64_t candidate, PickInodeCandidate());
    uint32_t alloc_seg;
    {
      std::lock_guard<std::mutex> guard(alloc_mu_);
      alloc_seg = alloc_seg_;
    }
    uint64_t created = 0;
    Status st = WithLocks(
        {{kLockBarrier, LockMode::kShared},
         {SegmentLockId(SegmentOfInode(candidate)), LockMode::kExclusive},
         {SegmentLockId(alloc_seg), LockMode::kExclusive},
         {InodeLockId(t.parent), LockMode::kExclusive},
         {InodeLockId(candidate), LockMode::kExclusive}},
        [&]() -> Status {
          MetaTxn txn(this);
          Bytes* parent_raw = nullptr;
          ASSIGN_OR_RETURN(Inode parent, ReadInodeIn(txn, t.parent, &parent_raw));
          if (parent.type != FileType::kDirectory) {
            return NotFound("parent vanished");
          }
          ASSIGN_OR_RETURN(std::optional<DirHit> hit, DirFind(parent, t.parent, t.leaf, nullptr));
          if (hit.has_value()) {
            return AlreadyExists(path);
          }
          // Re-validate the inode candidate under its segment lock.
          uint32_t seg = SegmentOfInode(candidate);
          ASSIGN_OR_RETURN(Bytes * seg_block, txn.GetBlock(geometry_.SegmentAddr(seg),
                                                           BlockKind::kMeta4k, SegmentLockId(seg)));
          if (SegBitGet(*seg_block, InodeBit(candidate))) {
            return Aborted("inode candidate taken");
          }
          SegBitSet(*seg_block, InodeBit(candidate), true);
          txn.Touch(geometry_.SegmentAddr(seg), SegBitByteOffset(InodeBit(candidate)), 1);

          Bytes* ino_raw = nullptr;
          ASSIGN_OR_RETURN(Inode fresh, ReadInodeIn(txn, candidate, &ino_raw));
          if (!fresh.IsFree()) {
            return Aborted("inode candidate not free on disk");
          }
          Inode node;
          node.type = FileType::kRegular;
          node.nlink = 1;
          node.mtime_us = node.ctime_us = node.atime_us = NowUs();
          WriteInodeIn(txn, candidate, ino_raw, node);

          RETURN_IF_ERROR(DirInsert(txn, t.parent, parent, parent_raw, t.leaf, candidate,
                                    FileType::kRegular));
          parent.mtime_us = NowUs();
          WriteInodeIn(txn, t.parent, parent_raw, parent);
          RETURN_IF_ERROR(txn.Commit());
          created = candidate;
          return OkStatus();
        });
    if (st.code() == StatusCode::kAborted) {
      NoteRetry();
      continue;
    }
    RETURN_IF_ERROR(st);
    stats_.operations.fetch_add(1, std::memory_order_relaxed);
    return created;
  }
  return Aborted("create: too many conflicts");
}

namespace {

Status InitNewInode(Inode* node, FileType type, const std::string& symlink_target,
                    int64_t now_us) {
  node->type = type;
  node->nlink = 1;
  node->mtime_us = node->ctime_us = node->atime_us = now_us;
  if (type == FileType::kSymlink) {
    if (symlink_target.size() > kSymlinkMax) {
      return InvalidArgument("symlink target too long");
    }
    node->symlink_target = symlink_target;
  }
  return OkStatus();
}

}  // namespace

Status FrangipaniFs::Mkdir(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.mkdir, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  if (options_.read_only) {
    return PermissionDenied("read-only mount");
  }
  for (int attempt = 0; attempt < kMaxOpRetries; ++attempt) {
    PathTarget t;
    RETURN_IF_ERROR(ResolveDir(path, &t));
    if (t.ino != 0) {
      return AlreadyExists(path);
    }
    ASSIGN_OR_RETURN(uint64_t candidate, PickInodeCandidate());
    uint32_t alloc_seg;
    {
      std::lock_guard<std::mutex> guard(alloc_mu_);
      alloc_seg = alloc_seg_;
    }
    Status st = WithLocks(
        {{kLockBarrier, LockMode::kShared},
         {SegmentLockId(SegmentOfInode(candidate)), LockMode::kExclusive},
         {SegmentLockId(alloc_seg), LockMode::kExclusive},
         {InodeLockId(t.parent), LockMode::kExclusive},
         {InodeLockId(candidate), LockMode::kExclusive}},
        [&]() -> Status {
          MetaTxn txn(this);
          Bytes* parent_raw = nullptr;
          ASSIGN_OR_RETURN(Inode parent, ReadInodeIn(txn, t.parent, &parent_raw));
          if (parent.type != FileType::kDirectory) {
            return NotFound("parent vanished");
          }
          ASSIGN_OR_RETURN(std::optional<DirHit> hit, DirFind(parent, t.parent, t.leaf, nullptr));
          if (hit.has_value()) {
            return AlreadyExists(path);
          }
          uint32_t seg = SegmentOfInode(candidate);
          ASSIGN_OR_RETURN(Bytes * seg_block, txn.GetBlock(geometry_.SegmentAddr(seg),
                                                           BlockKind::kMeta4k, SegmentLockId(seg)));
          if (SegBitGet(*seg_block, InodeBit(candidate))) {
            return Aborted("inode candidate taken");
          }
          SegBitSet(*seg_block, InodeBit(candidate), true);
          txn.Touch(geometry_.SegmentAddr(seg), SegBitByteOffset(InodeBit(candidate)), 1);

          Bytes* ino_raw = nullptr;
          ASSIGN_OR_RETURN(Inode fresh, ReadInodeIn(txn, candidate, &ino_raw));
          if (!fresh.IsFree()) {
            return Aborted("inode candidate not free on disk");
          }
          Inode node;
          RETURN_IF_ERROR(InitNewInode(&node, FileType::kDirectory, "", NowUs()));
          WriteInodeIn(txn, candidate, ino_raw, node);
          RETURN_IF_ERROR(DirInsert(txn, t.parent, parent, parent_raw, t.leaf, candidate,
                                    FileType::kDirectory));
          parent.mtime_us = NowUs();
          WriteInodeIn(txn, t.parent, parent_raw, parent);
          return txn.Commit();
        });
    if (st.code() == StatusCode::kAborted) {
      NoteRetry();
      continue;
    }
    RETURN_IF_ERROR(st);
    stats_.operations.fetch_add(1, std::memory_order_relaxed);
    return OkStatus();
  }
  return Aborted("mkdir: too many conflicts");
}

Status FrangipaniFs::Symlink(const std::string& target, const std::string& path) {
  obs::OpTrace trace(&op_metrics_.symlink, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  if (options_.read_only) {
    return PermissionDenied("read-only mount");
  }
  for (int attempt = 0; attempt < kMaxOpRetries; ++attempt) {
    PathTarget t;
    RETURN_IF_ERROR(ResolveDir(path, &t));
    if (t.ino != 0) {
      return AlreadyExists(path);
    }
    ASSIGN_OR_RETURN(uint64_t candidate, PickInodeCandidate());
    uint32_t alloc_seg;
    {
      std::lock_guard<std::mutex> guard(alloc_mu_);
      alloc_seg = alloc_seg_;
    }
    Status st = WithLocks(
        {{kLockBarrier, LockMode::kShared},
         {SegmentLockId(SegmentOfInode(candidate)), LockMode::kExclusive},
         {SegmentLockId(alloc_seg), LockMode::kExclusive},
         {InodeLockId(t.parent), LockMode::kExclusive},
         {InodeLockId(candidate), LockMode::kExclusive}},
        [&]() -> Status {
          MetaTxn txn(this);
          Bytes* parent_raw = nullptr;
          ASSIGN_OR_RETURN(Inode parent, ReadInodeIn(txn, t.parent, &parent_raw));
          if (parent.type != FileType::kDirectory) {
            return NotFound("parent vanished");
          }
          ASSIGN_OR_RETURN(std::optional<DirHit> hit, DirFind(parent, t.parent, t.leaf, nullptr));
          if (hit.has_value()) {
            return AlreadyExists(path);
          }
          uint32_t seg = SegmentOfInode(candidate);
          ASSIGN_OR_RETURN(Bytes * seg_block, txn.GetBlock(geometry_.SegmentAddr(seg),
                                                           BlockKind::kMeta4k, SegmentLockId(seg)));
          if (SegBitGet(*seg_block, InodeBit(candidate))) {
            return Aborted("inode candidate taken");
          }
          SegBitSet(*seg_block, InodeBit(candidate), true);
          txn.Touch(geometry_.SegmentAddr(seg), SegBitByteOffset(InodeBit(candidate)), 1);
          Bytes* ino_raw = nullptr;
          ASSIGN_OR_RETURN(Inode fresh, ReadInodeIn(txn, candidate, &ino_raw));
          if (!fresh.IsFree()) {
            return Aborted("inode candidate not free on disk");
          }
          Inode node;
          RETURN_IF_ERROR(InitNewInode(&node, FileType::kSymlink, target, NowUs()));
          WriteInodeIn(txn, candidate, ino_raw, node);
          RETURN_IF_ERROR(DirInsert(txn, t.parent, parent, parent_raw, t.leaf, candidate,
                                    FileType::kSymlink));
          parent.mtime_us = NowUs();
          WriteInodeIn(txn, t.parent, parent_raw, parent);
          return txn.Commit();
        });
    if (st.code() == StatusCode::kAborted) {
      NoteRetry();
      continue;
    }
    RETURN_IF_ERROR(st);
    stats_.operations.fetch_add(1, std::memory_order_relaxed);
    return OkStatus();
  }
  return Aborted("symlink: too many conflicts");
}

Status FrangipaniFs::Link(const std::string& existing, const std::string& path) {
  obs::OpTrace trace(&op_metrics_.link, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  if (options_.read_only) {
    return PermissionDenied("read-only mount");
  }
  for (int attempt = 0; attempt < kMaxOpRetries; ++attempt) {
    ASSIGN_OR_RETURN(uint64_t ino, ResolveIno(existing, /*follow_leaf=*/false));
    PathTarget t;
    RETURN_IF_ERROR(ResolveDir(path, &t));
    if (t.ino != 0) {
      return AlreadyExists(path);
    }
    uint32_t alloc_seg;
    {
      std::lock_guard<std::mutex> guard(alloc_mu_);
      alloc_seg = alloc_seg_;
    }
    Status st = WithLocks(
        {{kLockBarrier, LockMode::kShared},
         {SegmentLockId(alloc_seg), LockMode::kExclusive},
         {InodeLockId(t.parent), LockMode::kExclusive},
         {InodeLockId(ino), LockMode::kExclusive}},
        [&]() -> Status {
          MetaTxn txn(this);
          Bytes* parent_raw = nullptr;
          ASSIGN_OR_RETURN(Inode parent, ReadInodeIn(txn, t.parent, &parent_raw));
          if (parent.type != FileType::kDirectory) {
            return NotFound("parent vanished");
          }
          ASSIGN_OR_RETURN(std::optional<DirHit> hit, DirFind(parent, t.parent, t.leaf, nullptr));
          if (hit.has_value()) {
            return AlreadyExists(path);
          }
          Bytes* ino_raw = nullptr;
          ASSIGN_OR_RETURN(Inode node, ReadInodeIn(txn, ino, &ino_raw));
          if (node.IsFree()) {
            return Aborted("link target vanished");
          }
          if (node.type == FileType::kDirectory) {
            return InvalidArgument("hard links to directories are not allowed");
          }
          node.nlink++;
          node.ctime_us = NowUs();
          WriteInodeIn(txn, ino, ino_raw, node);
          RETURN_IF_ERROR(DirInsert(txn, t.parent, parent, parent_raw, t.leaf, ino, node.type));
          parent.mtime_us = NowUs();
          WriteInodeIn(txn, t.parent, parent_raw, parent);
          return txn.Commit();
        });
    if (st.code() == StatusCode::kAborted) {
      NoteRetry();
      continue;
    }
    RETURN_IF_ERROR(st);
    stats_.operations.fetch_add(1, std::memory_order_relaxed);
    return OkStatus();
  }
  return Aborted("link: too many conflicts");
}

// ---------------------------------------------------------------------------
// Unlink / Rmdir
// ---------------------------------------------------------------------------

Status FrangipaniFs::PurgeFreed(uint64_t ino, const Inode& freed) {
  if (freed.type == FileType::kDirectory) {
    // A directory's blocks are cached under its inode lock, and another
    // server may reallocate them under other locks once our segment locks
    // go: write the freed inode image and drop every entry now.
    RETURN_IF_ERROR(cache_->FlushLock(InodeLockId(ino)));
    cache_->InvalidateLock(InodeLockId(ino));
  }
  // A file's or symlink's inode lock covers only the inode image, so the
  // freed image stays dirty under the lock we still hold; the lock's revoke
  // writes it before anyone else can reuse the inode (§5). The content dies
  // with the file: drop, don't flush, its data entries.
  cache_->InvalidateLock(InodeDataLockId(ino));
  // A failed decommit (or log force) only leaves the chunks committed.
  (void)DecommitLargeTail(freed, 0);
  return OkStatus();
}

Status FrangipaniFs::RemoveCommon(const std::string& path, bool dir_expected) {
  RETURN_IF_ERROR(CheckUsable());
  if (options_.read_only) {
    return PermissionDenied("read-only mount");
  }
  for (int attempt = 0; attempt < kMaxOpRetries; ++attempt) {
    PathTarget t;
    RETURN_IF_ERROR(ResolveDir(path, &t));
    if (t.ino == 0) {
      return NotFound(path);
    }
    // Phase 1: inspect the target to learn which segments its storage spans.
    uint64_t expected_version = 0;
    std::vector<uint32_t> segs;
    Status st = WithLocks({{InodeLockId(t.ino), LockMode::kShared}}, [&]() -> Status {
      ASSIGN_OR_RETURN(Inode node, ReadInode(t.ino));
      if (node.IsFree()) {
        return Aborted("target concurrently removed");
      }
      expected_version = node.version;
      segs = SegmentsOf(t.ino, node);
      return OkStatus();
    });
    if (st.code() == StatusCode::kAborted) {
      NoteRetry();
      continue;
    }
    RETURN_IF_ERROR(st);

    std::vector<PlannedLock> plan = {{kLockBarrier, LockMode::kShared},
                                     {InodeLockId(t.parent), LockMode::kExclusive},
                                     {InodeLockId(t.ino), LockMode::kExclusive},
                                     {InodeDataLockId(t.ino), LockMode::kExclusive}};
    for (uint32_t seg : segs) {
      plan.push_back({SegmentLockId(seg), LockMode::kExclusive});
    }
    bool freed = false;
    Inode freed_inode;
    st = WithLocks(plan, [&]() -> Status {
      MetaTxn txn(this);
      Bytes* parent_raw = nullptr;
      ASSIGN_OR_RETURN(Inode parent, ReadInodeIn(txn, t.parent, &parent_raw));
      if (parent.type != FileType::kDirectory) {
        return Aborted("parent vanished");
      }
      ASSIGN_OR_RETURN(std::optional<DirHit> hit, DirFind(parent, t.parent, t.leaf, nullptr));
      if (!hit.has_value() || hit->ino != t.ino) {
        return Aborted("directory entry changed");
      }
      Bytes* ino_raw = nullptr;
      ASSIGN_OR_RETURN(Inode node, ReadInodeIn(txn, t.ino, &ino_raw));
      if (node.version != expected_version) {
        return Aborted("inode changed since phase one");
      }
      if (dir_expected) {
        if (node.type != FileType::kDirectory) {
          return Status(StatusCode::kInvalidArgument, "not a directory");
        }
        ASSIGN_OR_RETURN(bool empty, DirIsEmpty(node, t.ino));
        if (!empty) {
          return FailedPrecondition("directory not empty");
        }
      } else if (node.type == FileType::kDirectory) {
        return InvalidArgument("is a directory (use rmdir)");
      }
      RETURN_IF_ERROR(DirRemove(txn, t.parent, parent, t.leaf));
      parent.mtime_us = NowUs();
      WriteInodeIn(txn, t.parent, parent_raw, parent);
      node.nlink--;
      if (node.nlink == 0 || node.type == FileType::kDirectory) {
        freed = true;
        freed_inode = node;
        RETURN_IF_ERROR(FreeInodeAndBlocks(txn, t.ino, node));
        Inode empty_node;  // type kFree
        WriteInodeIn(txn, t.ino, ino_raw, empty_node);
      } else {
        node.ctime_us = NowUs();
        WriteInodeIn(txn, t.ino, ino_raw, node);
      }
      RETURN_IF_ERROR(txn.Commit());
      return freed ? PurgeFreed(t.ino, freed_inode) : OkStatus();
    });
    if (st.code() == StatusCode::kAborted) {
      NoteRetry();
      continue;
    }
    RETURN_IF_ERROR(st);
    if (freed) {
      {
        std::lock_guard<std::mutex> guard(ra_mu_);
        ra_last_end_.erase(t.ino);
      }
      std::lock_guard<std::mutex> guard(atime_mu_);
      atime_overlay_.erase(t.ino);
      mtime_overlay_.erase(t.ino);
    }
    stats_.operations.fetch_add(1, std::memory_order_relaxed);
    return OkStatus();
  }
  return Aborted("remove: too many conflicts");
}

Status FrangipaniFs::Unlink(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.unlink, options_.node_id);
  return RemoveCommon(path, false);
}

Status FrangipaniFs::Rmdir(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.rmdir, options_.node_id);
  return RemoveCommon(path, true);
}

// ---------------------------------------------------------------------------
// Rename
// ---------------------------------------------------------------------------

Status FrangipaniFs::Rename(const std::string& from, const std::string& to) {
  obs::OpTrace trace(&op_metrics_.rename, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  if (options_.read_only) {
    return PermissionDenied("read-only mount");
  }
  for (int attempt = 0; attempt < kMaxOpRetries; ++attempt) {
    PathTarget src;
    RETURN_IF_ERROR(ResolveDir(from, &src));
    if (src.ino == 0) {
      return NotFound(from);
    }
    PathTarget dst;
    RETURN_IF_ERROR(ResolveDir(to, &dst));
    if (dst.ino == src.ino && dst.parent == src.parent) {
      return OkStatus();  // rename to itself
    }

    // Phase 1: if the destination exists it will be replaced; learn its
    // segments for the free.
    uint64_t dst_version = 0;
    std::vector<uint32_t> dst_segs;
    if (dst.ino != 0) {
      Status st = WithLocks({{InodeLockId(dst.ino), LockMode::kShared}}, [&]() -> Status {
        ASSIGN_OR_RETURN(Inode node, ReadInode(dst.ino));
        if (node.IsFree()) {
          return Aborted("destination concurrently removed");
        }
        dst_version = node.version;
        dst_segs = SegmentsOf(dst.ino, node);
        return OkStatus();
      });
      if (st.code() == StatusCode::kAborted) {
        NoteRetry();
        continue;
      }
      RETURN_IF_ERROR(st);
    }

    std::vector<PlannedLock> plan = {{kLockBarrier, LockMode::kShared},
                                     {InodeLockId(src.parent), LockMode::kExclusive},
                                     {InodeLockId(dst.parent), LockMode::kExclusive}};
    if (dst.ino != 0) {
      plan.push_back({InodeLockId(dst.ino), LockMode::kExclusive});
      plan.push_back({InodeDataLockId(dst.ino), LockMode::kExclusive});
      for (uint32_t seg : dst_segs) {
        plan.push_back({SegmentLockId(seg), LockMode::kExclusive});
      }
    }
    bool replaced = false;
    Inode replaced_inode;
    Status st = WithLocks(plan, [&]() -> Status {
      MetaTxn txn(this);
      Bytes* srcp_raw = nullptr;
      ASSIGN_OR_RETURN(Inode srcp, ReadInodeIn(txn, src.parent, &srcp_raw));
      if (srcp.type != FileType::kDirectory) {
        return Aborted("source parent vanished");
      }
      ASSIGN_OR_RETURN(std::optional<DirHit> shit, DirFind(srcp, src.parent, src.leaf, nullptr));
      if (!shit.has_value() || shit->ino != src.ino) {
        return Aborted("source entry changed");
      }
      Bytes* dstp_raw = srcp_raw;
      Inode dstp = srcp;
      if (dst.parent != src.parent) {
        ASSIGN_OR_RETURN(dstp, ReadInodeIn(txn, dst.parent, &dstp_raw));
        if (dstp.type != FileType::kDirectory) {
          return Aborted("destination parent vanished");
        }
      }
      ASSIGN_OR_RETURN(std::optional<DirHit> dhit, DirFind(dstp, dst.parent, dst.leaf, nullptr));
      if (dst.ino == 0) {
        if (dhit.has_value()) {
          return Aborted("destination appeared");
        }
      } else {
        if (!dhit.has_value() || dhit->ino != dst.ino) {
          return Aborted("destination entry changed");
        }
        Bytes* dino_raw = nullptr;
        ASSIGN_OR_RETURN(Inode dnode, ReadInodeIn(txn, dst.ino, &dino_raw));
        if (dnode.version != dst_version) {
          return Aborted("destination inode changed");
        }
        if (dnode.type == FileType::kDirectory) {
          if (shit->type != FileType::kDirectory) {
            return InvalidArgument("cannot overwrite a directory with a file");
          }
          ASSIGN_OR_RETURN(bool empty, DirIsEmpty(dnode, dst.ino));
          if (!empty) {
            return FailedPrecondition("destination directory not empty");
          }
        }
        dnode.nlink--;
        if (dnode.nlink == 0 || dnode.type == FileType::kDirectory) {
          replaced = true;
          replaced_inode = dnode;
          RETURN_IF_ERROR(FreeInodeAndBlocks(txn, dst.ino, dnode));
          Inode empty_node;
          WriteInodeIn(txn, dst.ino, dino_raw, empty_node);
        } else {
          WriteInodeIn(txn, dst.ino, dino_raw, dnode);
        }
        RETURN_IF_ERROR(DirRemove(txn, dst.parent, dstp, dst.leaf));
      }
      RETURN_IF_ERROR(DirRemove(txn, src.parent, srcp, src.leaf));
      RETURN_IF_ERROR(
          DirInsert(txn, dst.parent, dstp, dstp_raw, dst.leaf, src.ino, shit->type));
      srcp.mtime_us = NowUs();
      dstp.mtime_us = NowUs();
      if (dst.parent != src.parent) {
        WriteInodeIn(txn, src.parent, srcp_raw, srcp);
        WriteInodeIn(txn, dst.parent, dstp_raw, dstp);
      } else {
        // Same directory: srcp and dstp are the same inode; merge edits.
        // DirInsert/DirRemove mutated `srcp`/`dstp` copies independently, so
        // re-apply size growth conservatively.
        dstp.mtime_us = NowUs();
        WriteInodeIn(txn, dst.parent, dstp_raw, dstp);
      }
      RETURN_IF_ERROR(txn.Commit());
      return replaced ? PurgeFreed(dst.ino, replaced_inode) : OkStatus();
    });
    if (st.code() == StatusCode::kAborted) {
      NoteRetry();
      continue;
    }
    RETURN_IF_ERROR(st);
    stats_.operations.fetch_add(1, std::memory_order_relaxed);
    return OkStatus();
  }
  return Aborted("rename: too many conflicts");
}

// ---------------------------------------------------------------------------
// Lookup / Stat / Readdir / Readlink
// ---------------------------------------------------------------------------

StatusOr<uint64_t> FrangipaniFs::Lookup(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.lookup, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  return ResolveIno(path, /*follow_leaf=*/true);
}

StatusOr<FileAttr> FrangipaniFs::StatIno(uint64_t ino) {
  // No-op when called from Stat (the outer trace keeps accumulating).
  obs::OpTrace trace(&op_metrics_.stat, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  FileAttr attr;
  Status st = WithLocks({{InodeLockId(ino), LockMode::kShared}}, [&]() -> Status {
    ASSIGN_OR_RETURN(Inode node, ReadInode(ino));
    if (node.IsFree()) {
      return NotFound("no such inode");
    }
    attr.ino = ino;
    attr.type = node.type;
    attr.size = node.type == FileType::kSymlink ? node.symlink_target.size() : node.size;
    attr.nlink = node.nlink;
    attr.mtime_us = node.mtime_us;
    attr.ctime_us = node.ctime_us;
    attr.atime_us = node.atime_us;
    return OkStatus();
  });
  RETURN_IF_ERROR(st);
  {
    std::lock_guard<std::mutex> guard(atime_mu_);
    auto it = atime_overlay_.find(ino);
    if (it != atime_overlay_.end()) {
      attr.atime_us = std::max(attr.atime_us, it->second);
    }
    // Extent-locked overwrites update mtime the same loose way (§2.1).
    auto mt = mtime_overlay_.find(ino);
    if (mt != mtime_overlay_.end()) {
      attr.mtime_us = std::max(attr.mtime_us, mt->second);
    }
  }
  return attr;
}

StatusOr<FileAttr> FrangipaniFs::Stat(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.stat, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  ASSIGN_OR_RETURN(uint64_t ino, ResolveIno(path, /*follow_leaf=*/false));
  return StatIno(ino);
}

StatusOr<std::string> FrangipaniFs::Readlink(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.readlink, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  ASSIGN_OR_RETURN(uint64_t ino, ResolveIno(path, /*follow_leaf=*/false));
  std::string target;
  Status st = WithLocks({{InodeLockId(ino), LockMode::kShared}}, [&]() -> Status {
    ASSIGN_OR_RETURN(Inode node, ReadInode(ino));
    if (node.type != FileType::kSymlink) {
      return InvalidArgument("not a symlink");
    }
    target = node.symlink_target;
    return OkStatus();
  });
  RETURN_IF_ERROR(st);
  return target;
}

StatusOr<std::vector<DirEntry>> FrangipaniFs::Readdir(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.readdir, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  ASSIGN_OR_RETURN(uint64_t ino, ResolveIno(path, /*follow_leaf=*/true));
  std::vector<DirEntry> entries;
  Status st = WithLocks({{InodeLockId(ino), LockMode::kShared}}, [&]() -> Status {
    ASSIGN_OR_RETURN(Inode dir, ReadInode(ino));
    if (dir.type != FileType::kDirectory) {
      return InvalidArgument("not a directory");
    }
    for (uint64_t off = 0; off < dir.size; off += kBlockSize) {
      BlockRef ref = MapOffset(dir, off, kBlockSize);
      if (ref.addr == 0) {
        continue;
      }
      ASSIGN_OR_RETURN(Bytes block, cache_->Read(ref.addr, kBlockSize, InodeLockId(ino)));
      DirBlockList(block, &entries);
    }
    return OkStatus();
  });
  RETURN_IF_ERROR(st);
  std::sort(entries.begin(), entries.end(),
            [](const DirEntry& a, const DirEntry& b) { return a.name < b.name; });
  return entries;
}

}  // namespace frangipani
