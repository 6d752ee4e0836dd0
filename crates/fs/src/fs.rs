//! The file system proper.

use crate::bitmap::Bitmap;
use crate::dir::Dirent;
use crate::inode::{Inode, InodeKind, InodeTable};
use crate::layout::{FsGeometry, DIRECT_POINTERS, DIRENT_SIZE, ROOT_INO};
use crate::{path, FsError, FsResult};
use blockrep_storage::BlockDevice;
use blockrep_types::{BlockData, BlockIndex};
use bytes::{Buf, BufMut};
use parking_lot::Mutex;

/// What a path names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A regular file.
    File,
    /// A directory.
    Directory,
}

/// `stat`-style information about a file or directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metadata {
    /// File or directory.
    pub kind: FileKind,
    /// Size in bytes (entry-table extent for directories).
    pub size: u64,
}

impl Metadata {
    /// Whether this is a directory.
    pub fn is_dir(&self) -> bool {
        self.kind == FileKind::Directory
    }
}

/// A write's block mapping, from [`FileSystem::map_for_write`].
struct WriteMap {
    /// Each logical block's device block, and whether it was just claimed.
    blocks: Vec<(u64, bool)>,
    /// The indirect table, when the mapping changed it.
    table: Option<(BlockIndex, BlockData)>,
    /// Whether the table was just claimed: nothing reaches it before the
    /// inode is written, so it may travel with the data.
    fresh_table: bool,
}

/// The pointer for `logical` in `inode`, 0 for a hole; `table` is the
/// inode's indirect table, if the lookup may reach it.
fn pointer(inode: &Inode, table: Option<&[u8]>, logical: u64) -> u32 {
    match logical.checked_sub(DIRECT_POINTERS as u64) {
        None => inode.direct[logical as usize],
        Some(entry) => table.map_or(0, |t| {
            let idx = entry as usize * 4;
            (&t[idx..idx + 4]).get_u32_le()
        }),
    }
}

/// A UNIX-like file system over any [`BlockDevice`].
///
/// The type is generic over the device: format it onto a
/// [`MemStore`](blockrep_storage::MemStore), a
/// [`FileStore`](blockrep_storage::FileStore), or a replicated reliable
/// device — the file system cannot tell the difference, which is the
/// paper's point.
///
/// Operations are serialized by an internal lock; the paper explicitly
/// leaves concurrent-access control out of scope ("we do not attempt to
/// model systems which guard against concurrent access of files").
///
/// # Examples
///
/// ```
/// use blockrep_fs::{FileKind, FileSystem};
/// use blockrep_storage::MemStore;
///
/// # fn main() -> Result<(), blockrep_fs::FsError> {
/// let fs = FileSystem::format(MemStore::new(256, 512))?;
/// fs.mkdir("/etc")?;
/// fs.write_file("/etc/motd", b"hello")?;
/// let meta = fs.stat("/etc/motd")?;
/// assert_eq!(meta.kind, FileKind::File);
/// assert_eq!(meta.size, 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FileSystem<D> {
    pub(crate) dev: D,
    pub(crate) geo: FsGeometry,
    pub(crate) lock: Mutex<()>,
}

impl<D: BlockDevice> FileSystem<D> {
    /// Formats the device with a fresh, empty file system and mounts it.
    ///
    /// # Errors
    ///
    /// [`FsError::DeviceTooSmall`] / [`FsError::BadSuperblock`] for
    /// unusable geometry, or a device error.
    pub fn format(dev: D) -> FsResult<Self> {
        let geo = FsGeometry::plan(dev.num_blocks(), dev.block_size())?;
        // Lay down the superblock and zero the rest of the metadata region,
        // so stale images cannot leak through, in one vectored write.
        let region: Vec<(BlockIndex, BlockData)> = (0..geo.data_start)
            .map(|block| {
                let image = if block == 0 {
                    BlockData::from(geo.encode())
                } else {
                    BlockData::zeroed(geo.block_size as usize)
                };
                (BlockIndex::new(block), image)
            })
            .collect();
        dev.write_blocks(&region)?;
        {
            let bitmap = Bitmap::new(&dev, &geo);
            bitmap.reserve_metadata()?;
            let inodes = InodeTable::new(&dev, &geo);
            let root = inodes.alloc(InodeKind::Dir)?;
            debug_assert_eq!(root, ROOT_INO);
        }
        Ok(FileSystem {
            dev,
            geo,
            lock: Mutex::new(()),
        })
    }

    /// Mounts an existing file system, validating the superblock against
    /// the device geometry.
    ///
    /// # Errors
    ///
    /// [`FsError::BadSuperblock`] if the device is not formatted (or was
    /// formatted with different geometry), or a device error.
    pub fn mount(dev: D) -> FsResult<Self> {
        let raw = dev.read_block(BlockIndex::new(0))?;
        let geo = FsGeometry::decode(raw.as_slice(), dev.num_blocks(), dev.block_size())?;
        Ok(FileSystem {
            dev,
            geo,
            lock: Mutex::new(()),
        })
    }

    /// The mounted geometry.
    pub fn geometry(&self) -> &FsGeometry {
        &self.geo
    }

    /// Borrows the underlying device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Unmounts, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Number of free data bytes.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn free_bytes(&self) -> FsResult<u64> {
        let _g = self.lock.lock();
        Ok(Bitmap::new(&self.dev, &self.geo).free_count()? * self.geo.block_size as u64)
    }

    // ----- path resolution -------------------------------------------------

    fn resolve_from(&self, parts: &[&str], full: &str) -> FsResult<u32> {
        let inodes = InodeTable::new(&self.dev, &self.geo);
        let mut ino = ROOT_INO;
        for (depth, part) in parts.iter().enumerate() {
            let node = inodes.read(ino)?;
            if node.kind != InodeKind::Dir {
                return Err(FsError::NotADirectory(parts[..depth].join("/")));
            }
            ino = self
                .lookup(ino, part)?
                .ok_or_else(|| FsError::NotFound(full.to_string()))?
                .0;
        }
        Ok(ino)
    }

    fn resolve(&self, p: &str) -> FsResult<u32> {
        self.resolve_from(&path::split(p)?, p)
    }

    /// Resolves the parent directory of `p` and returns `(parent_ino, name)`.
    fn resolve_parent<'p>(&self, p: &'p str) -> FsResult<(u32, &'p str)> {
        let (parents, name) = path::split_parent(p)?;
        let dir = self.resolve_from(&parents, p)?;
        let node = InodeTable::new(&self.dev, &self.geo).read(dir)?;
        if node.kind != InodeKind::Dir {
            return Err(FsError::NotADirectory(p.to_string()));
        }
        Ok((dir, name))
    }

    // ----- block mapping ---------------------------------------------------

    /// Rejects a logical block range ending past the pointer capacity.
    fn check_range(&self, end: u64) -> FsResult<()> {
        let pointers_per_block = self.geo.block_size as u64 / 4;
        if end > DIRECT_POINTERS as u64 + pointers_per_block {
            return Err(FsError::FileTooLarge);
        }
        Ok(())
    }

    /// The inode's indirect pointer table, or `None` when it has none.
    fn indirect_table(&self, inode: &Inode) -> FsResult<Option<Vec<u8>>> {
        if inode.indirect == 0 {
            return Ok(None);
        }
        let raw = self
            .dev
            .read_block(BlockIndex::new(inode.indirect as u64))?;
        Ok(Some(raw.as_slice().to_vec()))
    }

    /// Maps `count` consecutive logical blocks starting at `first` to
    /// device blocks, `None` for holes. The indirect pointer table is read
    /// at most once for the whole run.
    fn map_blocks(&self, inode: &Inode, first: u64, count: usize) -> FsResult<Vec<Option<u64>>> {
        let end = first + count as u64;
        self.check_range(end)?;
        let table = if end > DIRECT_POINTERS as u64 {
            self.indirect_table(inode)?
        } else {
            None
        };
        Ok((first..end)
            .map(|logical| pointer(inode, table.as_deref(), logical))
            .map(|p| (p != 0).then_some(p as u64))
            .collect())
    }

    /// Maps `count` consecutive logical blocks starting at `first` for a
    /// write, claiming every unmapped one — and a fresh indirect table when
    /// the run needs one — in one all-or-nothing bitmap round. Claimed
    /// blocks are handed out in logical order, the table before its
    /// entries. Nothing but the bitmap is written: the caller persists the
    /// data (with a fresh table), then an updated old table, then the inode.
    fn map_for_write(&self, inode: &mut Inode, first: u64, count: usize) -> FsResult<WriteMap> {
        let end = first + count as u64;
        self.check_range(end)?;
        let direct = DIRECT_POINTERS as u64;
        let fresh_table = end > direct && inode.indirect == 0;
        let mut table = if end <= direct {
            None
        } else if fresh_table {
            // A fresh table starts from zeros, never from the block's
            // stale contents.
            Some(vec![0u8; self.geo.block_size as usize])
        } else {
            self.indirect_table(inode)?
        };
        let mut blocks: Vec<(u64, bool)> = (first..end)
            .map(|logical| (pointer(inode, table.as_deref(), logical) as u64, false))
            .collect();
        let missing = blocks.iter().filter(|&&(b, _)| b == 0).count() + usize::from(fresh_table);
        let mut claimed = Bitmap::new(&self.dev, &self.geo)
            .alloc(missing)?
            .into_iter();
        let mut next = || -> u32 {
            claimed
                .next()
                .expect("alloc returns one block per missing pointer") as u32
        };
        let mut table_dirty = false;
        for (logical, (block, fresh)) in (first..end).zip(&mut blocks) {
            if *block != 0 {
                continue;
            }
            if logical < direct {
                inode.direct[logical as usize] = next();
                *block = inode.direct[logical as usize] as u64;
            } else {
                if inode.indirect == 0 {
                    inode.indirect = next();
                }
                let entry = next();
                let idx = (logical - direct) as usize * 4;
                let table = table.as_mut().expect("indirect runs carry the table");
                (&mut table[idx..idx + 4]).put_u32_le(entry);
                table_dirty = true;
                *block = entry as u64;
            }
            *fresh = true;
        }
        let table = table.filter(|_| table_dirty).map(|table| {
            (
                BlockIndex::new(inode.indirect as u64),
                BlockData::from(table),
            )
        });
        Ok(WriteMap {
            blocks,
            table,
            fresh_table,
        })
    }

    fn read_at(&self, inode: &Inode, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let bs = self.geo.block_size as u64;
        let end = (offset + len as u64).min(inode.size);
        if offset >= end {
            return Ok(Vec::new());
        }
        let first = offset / bs;
        let count = ((end - 1) / bs - first + 1) as usize;
        let mapped = self.map_blocks(inode, first, count)?;
        // One vectored device round for every allocated block of the range.
        let wanted: Vec<BlockIndex> = mapped
            .iter()
            .flatten()
            .map(|&b| BlockIndex::new(b))
            .collect();
        let mut fetched = self.dev.read_blocks(&wanted)?.into_iter();
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut pos = offset;
        for slot in mapped {
            let within = (pos % bs) as usize;
            let take = ((bs as usize) - within).min((end - pos) as usize);
            match slot {
                Some(_) => {
                    let raw = fetched.next().expect("one fetched block per mapped block");
                    out.extend_from_slice(&raw.as_slice()[within..within + take]);
                }
                None => out.extend(std::iter::repeat_n(0u8, take)), // hole
            }
            pos += take as u64;
        }
        Ok(out)
    }

    /// Writes `data` at `offset` in the order bitmap → data → indirect
    /// table, leaving the inode (updated in memory) for the caller to
    /// persist last. So every freshly allocated block is fully written
    /// before any pointer to it is persisted, and a write that runs out of
    /// space changes nothing. A fresh indirect table rides in the data
    /// batch, last: only the inode write makes it reachable.
    fn write_at(&self, inode: &mut Inode, offset: u64, data: &[u8]) -> FsResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let bs = self.geo.block_size as u64;
        let end = offset + data.len() as u64;
        if end > self.geo.max_file_size() {
            return Err(FsError::FileTooLarge);
        }
        let first = offset / bs;
        let count = ((end - 1) / bs - first + 1) as usize;
        let map = self.map_for_write(inode, first, count)?;
        // Chunk the byte range per block: (device block, read old contents,
        // within, take, src offset). Only partially covered blocks that
        // already held data (at most the first and last chunk) need their
        // old contents; a fresh block's old contents are zeros by
        // definition, whatever its stale image on the device.
        let mut chunks = Vec::with_capacity(count);
        let mut pos = offset;
        for (block, fresh) in map.blocks {
            let within = (pos % bs) as usize;
            let take = ((bs as usize) - within).min((end - pos) as usize);
            let rmw = !fresh && take != bs as usize;
            chunks.push((block, rmw, within, take, (pos - offset) as usize));
            pos += take as u64;
        }
        // Fetch the old contents in one vectored round.
        let partial: Vec<BlockIndex> = chunks
            .iter()
            .filter(|&&(_, rmw, ..)| rmw)
            .map(|&(block, ..)| BlockIndex::new(block))
            .collect();
        let mut old = self.dev.read_blocks(&partial)?.into_iter();
        let mut writes = Vec::with_capacity(chunks.len() + 1);
        for (block, rmw, within, take, src_off) in chunks {
            let src = &data[src_off..src_off + take];
            let payload = if take == bs as usize {
                // Full-block overwrite: no read, no copy of the old block.
                BlockData::from(src)
            } else {
                let mut raw = if rmw {
                    old.next()
                        .expect("one fetched block per partial chunk")
                        .as_slice()
                        .to_vec()
                } else {
                    vec![0u8; bs as usize]
                };
                raw[within..within + take].copy_from_slice(src);
                BlockData::from(raw)
            };
            writes.push((BlockIndex::new(block), payload));
        }
        let mut table = map.table;
        if map.fresh_table {
            writes.extend(table.take());
        }
        self.dev.write_blocks(&writes)?;
        if let Some((iblock, table)) = table {
            self.dev.write_block(iblock, table)?;
        }
        inode.size = inode.size.max(end);
        Ok(())
    }

    /// Frees every block `inode` owns — data blocks and the indirect
    /// table — in one bitmap round. Callers first persist the inode's
    /// release, so no pointer to a cleared bit survives a crash.
    fn free_blocks_of(&self, inode: &Inode) -> FsResult<()> {
        let mut blocks: Vec<u64> = inode.direct.iter().map(|&p| p as u64).collect();
        if let Some(table) = self.indirect_table(inode)? {
            blocks.extend(table.chunks_exact(4).map(|mut e| e.get_u32_le() as u64));
            blocks.push(inode.indirect as u64);
        }
        blocks.retain(|&b| b != 0);
        Bitmap::new(&self.dev, &self.geo).free(&blocks)
    }

    // ----- directory internals ----------------------------------------------

    /// Every slot of a directory — `None` for a free one — with its byte
    /// offset, from one read of the whole entry table.
    fn dir_slots(&self, dir: &Inode) -> FsResult<Vec<(u64, Option<Dirent>)>> {
        let raw = self.read_at(dir, 0, dir.size as usize)?;
        Ok(raw
            .chunks_exact(DIRENT_SIZE)
            .enumerate()
            .map(|(i, rec)| ((i * DIRENT_SIZE) as u64, Dirent::decode(rec)))
            .collect())
    }

    fn lookup(&self, dir_ino: u32, name: &str) -> FsResult<Option<(u32, u64)>> {
        let dir = InodeTable::new(&self.dev, &self.geo).read(dir_ino)?;
        Ok(self
            .dir_slots(&dir)?
            .into_iter()
            .find_map(|(offset, entry)| entry.filter(|e| e.name == name).map(|e| (e.ino, offset))))
    }

    fn dir_insert(&self, dir_ino: u32, name: &str, ino: u32) -> FsResult<()> {
        let inodes = InodeTable::new(&self.dev, &self.geo);
        let mut dir = inodes.read(dir_ino)?;
        // Reuse a free slot if one exists; otherwise append.
        let slot = self
            .dir_slots(&dir)?
            .into_iter()
            .find_map(|(offset, entry)| entry.is_none().then_some(offset))
            .unwrap_or(dir.size);
        let record = Dirent {
            ino,
            name: name.to_string(),
        }
        .encode();
        self.write_at(&mut dir, slot, &record)?;
        inodes.write(dir_ino, &dir)?;
        Ok(())
    }

    fn dir_remove(&self, dir_ino: u32, name: &str) -> FsResult<u32> {
        let inodes = InodeTable::new(&self.dev, &self.geo);
        let mut dir = inodes.read(dir_ino)?;
        let (ino, offset) = self
            .lookup(dir_ino, name)?
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        self.write_at(&mut dir, offset, &Dirent::free_slot())?;
        inodes.write(dir_ino, &dir)?;
        Ok(ino)
    }

    fn dir_entries(&self, dir_ino: u32) -> FsResult<Vec<Dirent>> {
        let dir = InodeTable::new(&self.dev, &self.geo).read(dir_ino)?;
        Ok(self
            .dir_slots(&dir)?
            .into_iter()
            .filter_map(|(_, entry)| entry)
            .collect())
    }

    /// Crate-internal: all live entries of a directory inode (used by the
    /// consistency checker, which walks by inode rather than by path).
    pub(crate) fn entries_of(&self, dir_ino: u32) -> FsResult<Vec<Dirent>> {
        self.dir_entries(dir_ino)
    }

    fn create_node(&self, p: &str, kind: InodeKind) -> FsResult<u32> {
        let (dir, name) = self.resolve_parent(p)?;
        if self.lookup(dir, name)?.is_some() {
            return Err(FsError::AlreadyExists(p.to_string()));
        }
        let inodes = InodeTable::new(&self.dev, &self.geo);
        let ino = inodes.alloc(kind)?;
        if let Err(e) = self.dir_insert(dir, name, ino) {
            inodes.free(ino)?; // roll back the inode on a full directory
            return Err(e);
        }
        Ok(ino)
    }

    // ----- public operations -------------------------------------------------

    /// Creates an empty file.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`], [`FsError::NotFound`] (missing parent),
    /// [`FsError::NoInodes`], [`FsError::NoSpace`], or device errors.
    pub fn create(&self, p: &str) -> FsResult<()> {
        let _g = self.lock.lock();
        self.create_node(p, InodeKind::File).map(|_| ())
    }

    /// Creates an empty directory.
    ///
    /// # Errors
    ///
    /// As for [`create`](Self::create).
    pub fn mkdir(&self, p: &str) -> FsResult<()> {
        let _g = self.lock.lock();
        self.create_node(p, InodeKind::Dir).map(|_| ())
    }

    /// Writes `data` at byte `offset`, extending the file as needed
    /// (creating a sparse hole when `offset` lies past the end).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsADirectory`],
    /// [`FsError::FileTooLarge`], [`FsError::NoSpace`], or device errors.
    pub fn write(&self, p: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        let _g = self.lock.lock();
        let ino = self.resolve(p)?;
        let inodes = InodeTable::new(&self.dev, &self.geo);
        let mut node = inodes.read(ino)?;
        if node.kind != InodeKind::File {
            return Err(FsError::IsADirectory(p.to_string()));
        }
        self.write_at(&mut node, offset, data)?;
        inodes.write(ino, &node)?;
        Ok(())
    }

    /// Reads up to `len` bytes from byte `offset` (short reads at EOF, like
    /// `pread`).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsADirectory`], or device errors.
    pub fn read(&self, p: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let _g = self.lock.lock();
        let ino = self.resolve(p)?;
        let node = InodeTable::new(&self.dev, &self.geo).read(ino)?;
        if node.kind != InodeKind::File {
            return Err(FsError::IsADirectory(p.to_string()));
        }
        self.read_at(&node, offset, len)
    }

    /// Replaces the file's contents (creating it if missing) — the
    /// `echo data > file` convenience.
    ///
    /// # Errors
    ///
    /// As for [`create`](Self::create) and [`write`](Self::write).
    pub fn write_file(&self, p: &str, data: &[u8]) -> FsResult<()> {
        match self.create(p) {
            Ok(()) => {}
            Err(FsError::AlreadyExists(_)) => self.truncate(p, 0)?,
            Err(e) => return Err(e),
        }
        self.write(p, 0, data)
    }

    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read).
    pub fn read_file(&self, p: &str) -> FsResult<Vec<u8>> {
        let size = self.stat(p)?.size;
        self.read(p, 0, size as usize)
    }

    /// Truncates (or sparsely extends) a file to `size` bytes.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsADirectory`],
    /// [`FsError::FileTooLarge`], or device errors.
    pub fn truncate(&self, p: &str, size: u64) -> FsResult<()> {
        let _g = self.lock.lock();
        if size > self.geo.max_file_size() {
            return Err(FsError::FileTooLarge);
        }
        let ino = self.resolve(p)?;
        let inodes = InodeTable::new(&self.dev, &self.geo);
        let mut node = inodes.read(ino)?;
        if node.kind != InodeKind::File {
            return Err(FsError::IsADirectory(p.to_string()));
        }
        let mut freed = Vec::new();
        if size < node.size {
            // Drop the pointers to whole blocks past the new end.
            let bs = self.geo.block_size as u64;
            let keep_blocks = size.div_ceil(bs);
            let direct = DIRECT_POINTERS as u64;
            for slot in node.direct.iter_mut().skip(keep_blocks as usize) {
                if *slot != 0 {
                    freed.push(*slot as u64);
                    *slot = 0;
                }
            }
            if let Some(mut table) = self.indirect_table(&node)? {
                let keep_entries = keep_blocks.saturating_sub(direct) as usize;
                let mut dirty = false;
                for entry in table.chunks_exact_mut(4).skip(keep_entries) {
                    let p = (&*entry).get_u32_le();
                    if p != 0 {
                        freed.push(p as u64);
                        entry.fill(0);
                        dirty = true;
                    }
                }
                if keep_blocks <= direct {
                    // The whole table goes away. Its stale pointers stay on
                    // the device: a block is fully rewritten before anything
                    // points at it again, so skipping the write-back is safe.
                    freed.push(node.indirect as u64);
                    node.indirect = 0;
                } else if dirty {
                    self.dev.write_block(
                        BlockIndex::new(node.indirect as u64),
                        BlockData::from(table),
                    )?;
                }
            }
            // Zero the tail of the last kept block so re-extension reads
            // zeros, not stale bytes.
            if size % bs != 0 {
                if let Some(block) = self.map_blocks(&node, size / bs, 1)?[0] {
                    let mut raw = self
                        .dev
                        .read_block(BlockIndex::new(block))?
                        .as_slice()
                        .to_vec();
                    raw[(size % bs) as usize..].fill(0);
                    self.dev
                        .write_block(BlockIndex::new(block), BlockData::from(raw))?;
                }
            }
        }
        node.size = size;
        inodes.write(ino, &node)?;
        // Clear the bits only once no persisted pointer names the blocks.
        Bitmap::new(&self.dev, &self.geo).free(&freed)
    }

    /// Removes a file, freeing its blocks and inode.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsADirectory`], or device errors.
    pub fn remove_file(&self, p: &str) -> FsResult<()> {
        let _g = self.lock.lock();
        let (dir, name) = self.resolve_parent(p)?;
        let (ino, _) = self
            .lookup(dir, name)?
            .ok_or_else(|| FsError::NotFound(p.to_string()))?;
        let inodes = InodeTable::new(&self.dev, &self.geo);
        let node = inodes.read(ino)?;
        if node.kind != InodeKind::File {
            return Err(FsError::IsADirectory(p.to_string()));
        }
        self.dir_remove(dir, name)?;
        inodes.free(ino)?;
        self.free_blocks_of(&node)
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::DirectoryNotEmpty`], [`FsError::NotADirectory`],
    /// [`FsError::NotFound`], [`FsError::InvalidPath`] (the root), or
    /// device errors.
    pub fn remove_dir(&self, p: &str) -> FsResult<()> {
        let _g = self.lock.lock();
        let (dir, name) = self.resolve_parent(p)?;
        let (ino, _) = self
            .lookup(dir, name)?
            .ok_or_else(|| FsError::NotFound(p.to_string()))?;
        let inodes = InodeTable::new(&self.dev, &self.geo);
        let node = inodes.read(ino)?;
        if node.kind != InodeKind::Dir {
            return Err(FsError::NotADirectory(p.to_string()));
        }
        if !self.dir_entries(ino)?.is_empty() {
            return Err(FsError::DirectoryNotEmpty(p.to_string()));
        }
        self.dir_remove(dir, name)?;
        inodes.free(ino)?;
        self.free_blocks_of(&node)
    }

    /// Renames (moves) a file or directory. Refuses to move a directory
    /// into its own subtree.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::AlreadyExists`],
    /// [`FsError::InvalidPath`], or device errors.
    pub fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let _g = self.lock.lock();
        // Reject moving a directory under itself: "/a" -> "/a/b/c".
        let from_parts = path::split(from)?;
        let to_parts = path::split(to)?;
        if to_parts.len() > from_parts.len() && to_parts[..from_parts.len()] == from_parts[..] {
            return Err(FsError::InvalidPath(format!("{to} is inside {from}")));
        }
        let (from_dir, from_name) = self.resolve_parent(from)?;
        let (ino, _) = self
            .lookup(from_dir, from_name)?
            .ok_or_else(|| FsError::NotFound(from.to_string()))?;
        let (to_dir, to_name) = self.resolve_parent(to)?;
        if self.lookup(to_dir, to_name)?.is_some() {
            return Err(FsError::AlreadyExists(to.to_string()));
        }
        self.dir_insert(to_dir, to_name, ino)?;
        self.dir_remove(from_dir, from_name)?;
        Ok(())
    }

    /// `stat`: metadata of a file or directory.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] or device errors.
    pub fn stat(&self, p: &str) -> FsResult<Metadata> {
        let _g = self.lock.lock();
        let ino = self.resolve(p)?;
        let node = InodeTable::new(&self.dev, &self.geo).read(ino)?;
        Ok(Metadata {
            kind: match node.kind {
                InodeKind::Dir => FileKind::Directory,
                _ => FileKind::File,
            },
            size: node.size,
        })
    }

    /// Whether a path exists.
    pub fn exists(&self, p: &str) -> bool {
        let _g = self.lock.lock();
        self.resolve(p).is_ok()
    }

    /// Lists a directory's entry names, sorted.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`], [`FsError::NotFound`], or device errors.
    pub fn read_dir(&self, p: &str) -> FsResult<Vec<String>> {
        let _g = self.lock.lock();
        let ino = self.resolve(p)?;
        let node = InodeTable::new(&self.dev, &self.geo).read(ino)?;
        if node.kind != InodeKind::Dir {
            return Err(FsError::NotADirectory(p.to_string()));
        }
        let mut names: Vec<String> = self.dir_entries(ino)?.into_iter().map(|e| e.name).collect();
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::CountingDevice;
    use blockrep_storage::MemStore;

    fn fresh() -> FileSystem<MemStore> {
        FileSystem::format(MemStore::new(512, 512)).unwrap()
    }

    #[test]
    fn format_then_mount_roundtrip() {
        let fs = fresh();
        fs.write_file("/persist", b"data").unwrap();
        let dev = fs.into_device();
        let fs2 = FileSystem::mount(dev).unwrap();
        assert_eq!(fs2.read_file("/persist").unwrap(), b"data");
    }

    #[test]
    fn mount_unformatted_device_fails() {
        assert!(matches!(
            FileSystem::mount(MemStore::new(64, 512)),
            Err(FsError::BadSuperblock(_))
        ));
    }

    #[test]
    fn root_starts_empty() {
        let fs = fresh();
        assert_eq!(fs.read_dir("/").unwrap(), Vec::<String>::new());
        assert!(fs.stat("/").unwrap().is_dir());
    }

    #[test]
    fn create_write_read_small_file() {
        let fs = fresh();
        fs.create("/hello").unwrap();
        fs.write("/hello", 0, b"world").unwrap();
        assert_eq!(fs.read("/hello", 0, 100).unwrap(), b"world");
        assert_eq!(fs.stat("/hello").unwrap().size, 5);
    }

    #[test]
    fn overwrite_in_place() {
        let fs = fresh();
        fs.write_file("/f", b"aaaaaa").unwrap();
        fs.write("/f", 2, b"XX").unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), b"aaXXaa");
    }

    #[test]
    fn sparse_files_read_zeroes_in_holes() {
        let fs = fresh();
        fs.create("/sparse").unwrap();
        fs.write("/sparse", 3 * 512 + 10, b"tail").unwrap();
        let data = fs.read_file("/sparse").unwrap();
        assert_eq!(data.len(), 3 * 512 + 14);
        assert!(data[..3 * 512 + 10].iter().all(|&b| b == 0));
        assert_eq!(&data[3 * 512 + 10..], b"tail");
    }

    #[test]
    fn multi_block_file_via_indirect_pointers() {
        let fs = fresh();
        // 40 blocks worth — far past the 12 direct pointers.
        let data: Vec<u8> = (0..40 * 512u32).map(|i| (i % 251) as u8).collect();
        fs.write_file("/big", &data).unwrap();
        assert_eq!(fs.read_file("/big").unwrap(), data);
    }

    #[test]
    fn file_size_limit_enforced() {
        let fs = FileSystem::format(MemStore::new(512, 512)).unwrap();
        let max = fs.geometry().max_file_size();
        assert!(matches!(
            fs.write("/missing-yet", 0, b"x"),
            Err(FsError::NotFound(_))
        ));
        fs.create("/limit").unwrap();
        assert!(matches!(
            fs.write("/limit", max, b"x"),
            Err(FsError::FileTooLarge)
        ));
    }

    #[test]
    fn directories_nest_and_list() {
        let fs = fresh();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        fs.write_file("/a/b/c", b"1").unwrap();
        fs.write_file("/a/x", b"2").unwrap();
        assert_eq!(fs.read_dir("/a").unwrap(), vec!["b", "x"]);
        assert_eq!(fs.read_dir("/a/b").unwrap(), vec!["c"]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let fs = fresh();
        fs.create("/f").unwrap();
        assert!(matches!(fs.create("/f"), Err(FsError::AlreadyExists(_))));
        assert!(matches!(fs.mkdir("/f"), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn remove_file_frees_space() {
        let fs = fresh();
        // Prime the root directory so its entry block is already allocated.
        fs.create("/keep").unwrap();
        let before = fs.free_bytes().unwrap();
        fs.write_file("/tmp", &vec![1u8; 20 * 512]).unwrap();
        assert!(fs.free_bytes().unwrap() < before);
        fs.remove_file("/tmp").unwrap();
        assert_eq!(fs.free_bytes().unwrap(), before);
        assert!(!fs.exists("/tmp"));
    }

    #[test]
    fn remove_dir_requires_empty() {
        let fs = fresh();
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f", b"x").unwrap();
        assert!(matches!(
            fs.remove_dir("/d"),
            Err(FsError::DirectoryNotEmpty(_))
        ));
        fs.remove_file("/d/f").unwrap();
        fs.remove_dir("/d").unwrap();
        assert!(!fs.exists("/d"));
    }

    #[test]
    fn truncate_shrinks_and_zero_fills() {
        let fs = fresh();
        fs.write_file("/t", &vec![7u8; 1000]).unwrap();
        fs.truncate("/t", 100).unwrap();
        assert_eq!(fs.stat("/t").unwrap().size, 100);
        // Re-extend: the formerly truncated range must read zero.
        fs.write("/t", 200, b"z").unwrap();
        let data = fs.read_file("/t").unwrap();
        assert!(data[..100].iter().all(|&b| b == 7));
        assert!(data[100..200].iter().all(|&b| b == 0));
        assert_eq!(data[200], b'z');
    }

    #[test]
    fn rename_moves_across_directories() {
        let fs = fresh();
        fs.mkdir("/src").unwrap();
        fs.mkdir("/dst").unwrap();
        fs.write_file("/src/f", b"move me").unwrap();
        fs.rename("/src/f", "/dst/g").unwrap();
        assert!(!fs.exists("/src/f"));
        assert_eq!(fs.read_file("/dst/g").unwrap(), b"move me");
    }

    #[test]
    fn rename_refuses_cycle() {
        let fs = fresh();
        fs.mkdir("/a").unwrap();
        assert!(matches!(
            fs.rename("/a", "/a/b"),
            Err(FsError::InvalidPath(_))
        ));
    }

    #[test]
    fn rename_refuses_overwrite() {
        let fs = fresh();
        fs.write_file("/a", b"1").unwrap();
        fs.write_file("/b", b"2").unwrap();
        assert!(matches!(
            fs.rename("/a", "/b"),
            Err(FsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn file_operations_reject_directories_and_vice_versa() {
        let fs = fresh();
        fs.mkdir("/d").unwrap();
        fs.write_file("/f", b"x").unwrap();
        assert!(matches!(fs.read("/d", 0, 1), Err(FsError::IsADirectory(_))));
        assert!(matches!(
            fs.write("/d", 0, b"x"),
            Err(FsError::IsADirectory(_))
        ));
        assert!(matches!(fs.read_dir("/f"), Err(FsError::NotADirectory(_))));
        assert!(matches!(
            fs.remove_file("/d"),
            Err(FsError::IsADirectory(_))
        ));
        assert!(matches!(
            fs.remove_dir("/f"),
            Err(FsError::NotADirectory(_))
        ));
    }

    #[test]
    fn path_through_file_is_not_a_directory() {
        let fs = fresh();
        fs.write_file("/f", b"x").unwrap();
        assert!(matches!(
            fs.read_file("/f/under"),
            Err(FsError::NotADirectory(_))
        ));
    }

    #[test]
    fn directory_grows_past_one_block_of_entries() {
        let fs = fresh();
        fs.mkdir("/many").unwrap();
        // 16 entries fit in one 512-byte block; insert 40.
        for i in 0..40 {
            fs.write_file(&format!("/many/file{i:02}"), b"x").unwrap();
        }
        let listing = fs.read_dir("/many").unwrap();
        assert_eq!(listing.len(), 40);
        assert_eq!(listing[0], "file00");
        assert_eq!(listing[39], "file39");
    }

    #[test]
    fn deleted_entry_slot_is_reused() {
        let fs = fresh();
        fs.mkdir("/d").unwrap();
        for i in 0..5 {
            fs.write_file(&format!("/d/f{i}"), b"x").unwrap();
        }
        let size_before = fs.stat("/d").unwrap().size;
        fs.remove_file("/d/f2").unwrap();
        fs.write_file("/d/f5", b"x").unwrap();
        assert_eq!(fs.stat("/d").unwrap().size, size_before);
    }

    #[test]
    fn no_space_surfaces_cleanly() {
        let fs = FileSystem::format(MemStore::new(32, 512)).unwrap();
        let mut wrote = 0;
        // Two-block files exhaust the 28 data blocks before the 16 inodes.
        let err = loop {
            match fs.write_file(&format!("/f{wrote}"), &vec![1u8; 1024]) {
                Ok(()) => wrote += 1,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, FsError::NoSpace), "got {err}");
        assert!(wrote > 0);
    }

    fn assert_clean<D: BlockDevice>(fs: &FileSystem<D>) {
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
    }

    #[test]
    fn write_out_of_space_leaks_nothing() {
        let fs = FileSystem::format(MemStore::new(32, 512)).unwrap();
        assert_eq!(fs.free_bytes().unwrap(), 28 * 512);
        fs.create("/a").unwrap();
        let before = fs.free_bytes().unwrap();
        assert!(matches!(
            fs.write("/a", 0, &[1; 64 * 512]),
            Err(FsError::NoSpace)
        ));
        assert_eq!(fs.free_bytes().unwrap(), before, "no block claimed");
        assert_eq!(fs.stat("/a").unwrap().size, 0);
        assert_clean(&fs);
        // Everything that was free is still usable.
        fs.write("/a", 0, &[2; 20 * 512]).unwrap();
        assert_eq!(fs.read_file("/a").unwrap(), vec![2; 20 * 512]);
        assert_clean(&fs);
    }

    #[test]
    fn format_lays_down_metadata_in_vectored_rounds() {
        let fs = FileSystem::format(CountingDevice::new(MemStore::new(512, 512))).unwrap();
        let c = fs.device().counts();
        assert!(fs.geometry().data_start > 2);
        // One write for the region, one for the bitmap, one for the root
        // inode — not two per metadata block.
        assert_eq!((c.write_batches, c.single_writes), (2, 1));
        assert_clean(&fs);
    }

    #[test]
    fn write_file_rounds_do_not_grow_with_file_size() {
        let fs = FileSystem::format(CountingDevice::new(MemStore::new(512, 512))).unwrap();
        fs.create("/warm").unwrap(); // the root's entry block exists
        let rounds = |path: &str, blocks: usize| {
            let before = fs.device().counts();
            fs.write_file(path, &vec![7; blocks * 512]).unwrap();
            let after = fs.device().counts();
            (
                after.single_writes - before.single_writes,
                after.write_batches - before.write_batches,
            )
        };
        // A new file: inode, directory inode and file inode single writes;
        // directory entry, bitmap and data batches.
        for blocks in [1, 12, 40] {
            assert_eq!(rounds(&format!("/f{blocks}"), blocks), (3, 3), "{blocks}");
        }
        // An existing file: truncate's inode write and bitmap free, then
        // the bitmap claim, the data and the inode.
        for blocks in [1, 12, 40] {
            assert_eq!(rounds(&format!("/f{blocks}"), blocks), (2, 3), "{blocks}");
        }
        assert_clean(&fs);
    }

    #[test]
    fn reused_blocks_never_leak_stale_bytes() {
        let fs = fresh();
        fs.write_file("/f", &[0xFF; 40 * 512]).unwrap();
        fs.truncate("/f", 0).unwrap();
        // First fit hands the freed 0xFF blocks (and table) straight back,
        // for data, a partial head block and a fresh indirect table alike.
        fs.write("/f", 100, &[0x11; 20 * 512]).unwrap();
        let data = fs.read_file("/f").unwrap();
        assert_eq!(data.len(), 100 + 20 * 512);
        assert!(data[..100].iter().all(|&b| b == 0));
        assert!(data[100..].iter().all(|&b| b == 0x11));
        assert_clean(&fs);
    }

    #[test]
    fn fresh_indirect_table_holds_only_new_pointers() {
        let fs = fresh();
        fs.write_file("/a", &[0xFF; 40 * 512]).unwrap();
        let inodes = InodeTable::new(&fs.dev, &fs.geo);
        let ino_a = fs.resolve("/a").unwrap();
        let old = fs.map_blocks(&inodes.read(ino_a).unwrap(), 0, 40).unwrap();
        let old_table = inodes.read(ino_a).unwrap().indirect as u64;
        // Shrink out of the indirect range: the table block is freed with
        // its pointers still on the device.
        fs.truncate("/a", 5 * 512).unwrap();
        fs.write_file("/b", &[0x22; 20 * 512]).unwrap();
        let b = inodes.read(fs.resolve("/b").unwrap()).unwrap();
        let reused = b.indirect as u64;
        assert!(
            reused == old_table || old.contains(&Some(reused)),
            "the new table reuses a freed block"
        );
        let table = fs.indirect_table(&b).unwrap().unwrap();
        let pointers: Vec<u32> = table
            .chunks_exact(4)
            .map(|mut e| e.get_u32_le())
            .filter(|&p| p != 0)
            .collect();
        assert_eq!(pointers.len(), 20 - DIRECT_POINTERS, "{pointers:?}");
        assert!(table[(20 - DIRECT_POINTERS) * 4..].iter().all(|&b| b == 0));
        assert_eq!(fs.read_file("/b").unwrap(), vec![0x22; 20 * 512]);
        assert_clean(&fs);
    }
}
