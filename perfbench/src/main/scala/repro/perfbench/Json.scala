package repro.perfbench

/** Minimal JSON output for the result lines (the build has no JSON library). */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }

  /** Full-precision number; non-finite values have no JSON form and are
    * written as null so that a reader flags them instead of misparsing. */
  def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}:$v" }.mkString("{", ",", "}")

  def strMap(m: Seq[(String, String)]): String = obj(m.map { case (k, v) => k -> str(v) })
}
