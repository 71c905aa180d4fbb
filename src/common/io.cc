#include "common/io.hh"

#include <filesystem>
#include <system_error>

#include "common/log.hh"

namespace mnoc {

FileWriter::FileWriter(const std::string &path, bool binary)
    : path_(path),
      out_(path, binary ? std::ios::out | std::ios::binary
                        : std::ios::out)
{
    if (!out_.is_open())
        fatal("cannot open file for write: " + path_);
}

FileWriter::~FileWriter()
{
    if (closed_)
        return;
    out_.flush();
    if (!out_.good())
        warn("failed writing file (disk full or I/O error): " +
             path_);
}

void
FileWriter::failIfBad()
{
    if (!out_.good())
        fatal("failed writing file (disk full or I/O error): " + path_);
}

void
FileWriter::close()
{
    if (closed_)
        return;
    out_.flush();
    if (!out_.good())
        fatal("failed writing file (disk full or I/O error): " + path_);
    out_.close();
    if (out_.fail())
        fatal("failed closing file (disk full or I/O error): " + path_);
    closed_ = true;
}

std::string
readWholeFile(const std::string &path, const std::string &noun)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        fatal("cannot open " + noun + " file: " + path);
    // A directory opens without complaint and has no byte size, and a
    // pipe has no size at all.
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec))
        fatal("not a regular file, cannot load it as a " + noun + ": " +
              path);
    in.seekg(0, std::ios::end);
    std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    if (size < 0 || !in)
        fatal("cannot size " + noun + " file: " + path);
    std::string bytes(static_cast<std::size_t>(size), '\0');
    if (!in.read(bytes.data(), size))
        fatal("I/O error reading " + noun + " file: " + path);
    return bytes;
}

} // namespace mnoc
