/**
 * @file
 * Checked file I/O.  Every artifact writer in the tree goes through
 * FileWriter, the single place allowed to own a raw std::ofstream
 * (enforced by the mnoc-analyze raw-ofstream rule); the loaders that
 * take a whole file in memory (designs, journals, span files, the
 * analyzer's sources and compilation database) read it through
 * readWholeFile().
 *
 * The point is failure visibility.  A plain ofstream swallows write
 * errors -- a full disk or revoked permissions produce a silently
 * truncated artifact that only fails on the next load, far from the
 * cause.  FileWriter checks the stream at open, on demand
 * (failIfBad(), cheap enough to call per row), and at close(), and
 * every failure is a fatal() naming the path.  The destructor never
 * throws; an unclosed writer that failed is reported through warn()
 * so callers that care must call close() themselves.
 *
 * readWholeFile() is the read-side twin: one sized read of a regular
 * file, every failure a fatal() naming the path.
 */

#ifndef MNOC_COMMON_IO_HH
#define MNOC_COMMON_IO_HH

#include <fstream>
#include <string>

namespace mnoc {

/** A checked output file: open/write/close failures are loud and
 *  always name the path. */
class FileWriter
{
  public:
    /**
     * Open @p path for writing (truncating).
     * @param binary Open in binary mode (PGM pixel data).
     * @throws FatalError when the file cannot be opened.
     */
    explicit FileWriter(const std::string &path, bool binary = false);

    /** Closes; failures are warn()ed, never thrown.  Call close()
     *  to get the checked, throwing path. */
    ~FileWriter();

    FileWriter(const FileWriter &) = delete;
    FileWriter &operator=(const FileWriter &) = delete;

    /** The underlying stream; write through it freely, then close()
     *  (or failIfBad() for mid-write checkpoints). */
    std::ostream &stream() { return out_; }

    /** The path being written (for caller-side messages). */
    const std::string &path() const { return path_; }

    /**
     * Fail loudly if the stream has seen any error so far.
     * @throws FatalError naming the path.
     */
    void failIfBad();

    /**
     * Flush, verify, and close the file.  Idempotent.
     * @throws FatalError when the stream reports an error (disk
     *         full, I/O error), naming the path.
     */
    void close();

  private:
    std::string path_;
    std::ofstream out_;
    bool closed_ = false;
};

/**
 * The bytes of the regular file @p path, in one sized read.
 * @param noun What the file is, for the messages ("design",
 *        "journal", ...): "cannot open <noun> file: <path>", "not a
 *        regular file, cannot load it as a <noun>: <path>".
 * @throws FatalError when the file cannot be opened, is not a
 *         regular file (a directory, a pipe), or cannot be read.
 */
std::string readWholeFile(const std::string &path, const std::string &noun);

} // namespace mnoc

#endif // MNOC_COMMON_IO_HH
